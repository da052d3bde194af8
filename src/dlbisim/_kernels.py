"""Partition refinement inner loop: numba-compiled, or over Python lists.

Two sources implement one algorithm.  _refine_loop works on
preallocated numpy arrays and is compiled with numba's @njit when numba
imports; _array_loop allocates its scratch and trace arrays and decodes
the trace it records (the "numba" engine).  _refine_list_loop is the
same algorithm written for CPython over Python lists, dicts and a deque
(the "numpy" engine), since interpreting the array loop on numpy
scalars is several times slower.  The engine is a fact of the install:
numba when it imports, the list loop otherwise.  compute_partition can
still name either engine, so that tests and `dlbisim bench` can compare
them.

Both engines' loops take (n, nsr, pred_indptr, pred_indices, block_of,
elems, pos, first, last, nblocks0, use_counts, record), leave the final
block ids in block_of and return (block_of, block count, events).  An
event is a (parent, role, splitter, time, subs) tuple, subs the
(block id, count class) pairs the parent split into, in layout order;
events are recorded only when record is set.  Both loops give the same
partition, block ids and events.  The test suite establishes this: it
compares _refine_list_loop with _array_loop over the uncompiled
_refine_loop on random instances for every feature set, and with the
compiled kernel where numba imports.

Splitting discipline.  A worklist entry is a (block, splitter role)
pair.  Extracting one counts, for every element x, the edges x leads
into the block along that role.  With counting enabled the touched
elements of each affected block are regrouped by exact count (ascending,
ties on element id), the zero-count remainder keeps the parent id, and
the classic "skip one maximal sub-block" worklist economy applies: it is
sound here because counts are additive under block complement, provided
the initial partition is already stable with respect to the whole
domain (the caller pre-splits by per-role degree).  Without counting the
split is binary (no edge / some edge), complement reasoning is invalid,
so every block is seeded and every sub-block is queued.
"""

from collections import deque

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is an optional extra; _refine_list_loop runs without it
    HAVE_NUMBA = False


def _refine_loop(n, nsr, pred_indptr, pred_indices,
                 block_of, elems, pos, first, last, nblocks0,
                 use_counts, record,
                 counts, touched, tlist, tb_cnt, tb_start, tb_fill, affected,
                 sort_keys, queue, in_l,
                 ev_parent, ev_role, ev_yblock, ev_time, ev_sub_start,
                 sub_block, sub_count):
    nblocks = nblocks0
    qhead = 0
    qtail = 0
    nev = 0
    nsub = 0
    ev_sub_start[0] = 0
    base_key = np.int64(n + 1)

    if use_counts:
        zmax = 0
        for b in range(1, nblocks0):
            if last[b] - first[b] > last[zmax] - first[zmax]:
                zmax = b
        for b in range(nblocks0):
            if b != zmax:
                for s in range(nsr):
                    queue[qtail] = np.int64(b) * nsr + s
                    qtail += 1
                    in_l[b * nsr + s] = 1
    else:
        for b in range(nblocks0):
            for s in range(nsr):
                queue[qtail] = np.int64(b) * nsr + s
                qtail += 1
                in_l[b * nsr + s] = 1

    t = 0
    while qhead < qtail:
        pair = queue[qhead]
        qhead += 1
        yblk = int(pair // nsr)
        role = int(pair % nsr)
        in_l[pair] = 0
        t += 1

        # counts[x] = number of edges x -> (member of yblk) along role
        nt = 0
        for i in range(first[yblk], last[yblk]):
            y = elems[i]
            for j in range(pred_indptr[role, y], pred_indptr[role, y + 1]):
                x = pred_indices[j]
                if counts[x] == 0:
                    touched[nt] = x
                    nt += 1
                counts[x] += 1
        if nt == 0:
            continue

        # bucket touched elements by their current block
        na = 0
        for i in range(nt):
            b = block_of[touched[i]]
            if tb_cnt[b] == 0:
                affected[na] = b
                na += 1
            tb_cnt[b] += 1
        off = 0
        for k in range(na):
            b = affected[k]
            tb_start[b] = off
            tb_fill[b] = off
            off += tb_cnt[b]
        for i in range(nt):
            x = touched[i]
            b = block_of[x]
            tlist[tb_fill[b]] = x
            tb_fill[b] += 1

        for k in range(na):
            b = affected[k]
            fb = first[b]
            lb = last[b]
            sz = lb - fb
            ntb = tb_cnt[b]
            s0 = tb_start[b]
            tb_cnt[b] = 0

            if use_counts:
                for ii in range(ntb):
                    x = tlist[s0 + ii]
                    sort_keys[ii] = counts[x] * base_key + x
                order = np.argsort(sort_keys[:ntb])
                cmin = sort_keys[order[0]] // base_key
                cmax = sort_keys[order[ntb - 1]] // base_key
                if ntb == sz and cmin == cmax:
                    continue
            else:
                if ntb == sz:
                    continue
                order = np.argsort(tlist[s0:s0 + ntb])

            # move touched elements to the back of the segment, in order
            tpos = lb - ntb
            for oi in range(ntb):
                if use_counts:
                    x = int(sort_keys[order[oi]] % base_key)
                else:
                    x = tlist[s0 + order[oi]]
                cur = pos[x]
                z = elems[tpos]
                elems[tpos] = x
                elems[cur] = z
                pos[x] = tpos
                pos[z] = cur
                tpos += 1

            if record:
                ev_parent[nev] = b
                ev_role[nev] = role
                ev_yblock[nev] = yblk
                ev_time[nev] = t

            nu = sz - ntb
            first_new = nblocks
            residual_used = False
            if nu > 0:
                first[b] = fb
                last[b] = fb + nu
                residual_used = True
                if record:
                    sub_block[nsub] = b
                    sub_count[nsub] = 0
                    nsub += 1
            seg = fb + nu
            ii = 0
            while ii < ntb:
                if use_counts:
                    cnt = sort_keys[order[ii]] // base_key
                    jj = ii
                    while jj < ntb and sort_keys[order[jj]] // base_key == cnt:
                        jj += 1
                else:
                    cnt = 1
                    jj = ntb
                size_c = jj - ii
                if not residual_used:
                    cid = b
                    residual_used = True
                    first[b] = seg
                    last[b] = seg + size_c
                else:
                    cid = nblocks
                    nblocks += 1
                    first[cid] = seg
                    last[cid] = seg + size_c
                    for qq in range(seg, seg + size_c):
                        block_of[elems[qq]] = cid
                if record:
                    sub_block[nsub] = cid
                    sub_count[nsub] = cnt
                    nsub += 1
                seg += size_c
                ii = jj
            if record:
                nev += 1
                ev_sub_start[nev] = nsub

            # worklist update: replace a queued parent by all sub-blocks,
            # otherwise queue all sub-blocks (minus a maximal one when
            # counting makes that economy sound)
            if use_counts:
                zbest = b
                zsize = last[b] - first[b]
                for cid in range(first_new, nblocks):
                    if last[cid] - first[cid] > zsize:
                        zbest = cid
                        zsize = last[cid] - first[cid]
            else:
                zbest = -1
            for s in range(nsr):
                if in_l[b * nsr + s] != 0:
                    for cid in range(first_new, nblocks):
                        queue[qtail] = np.int64(cid) * nsr + s
                        qtail += 1
                        in_l[cid * nsr + s] = 1
                else:
                    if b != zbest:
                        queue[qtail] = np.int64(b) * nsr + s
                        qtail += 1
                        in_l[b * nsr + s] = 1
                    for cid in range(first_new, nblocks):
                        if cid != zbest:
                            queue[qtail] = np.int64(cid) * nsr + s
                            qtail += 1
                            in_l[cid * nsr + s] = 1

        for i in range(nt):
            counts[touched[i]] = 0

    return nblocks, nev, nsub


_refine_loop_jit = njit(cache=True)(_refine_loop) if HAVE_NUMBA else _refine_loop


def _array_loop(n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last,
                nblocks0, use_counts, record):
    """_refine_loop_jit on fresh scratch and trace arrays, its events decoded."""
    # every split makes a new block: at most n events and 2n sub-blocks
    ne = n + 1 if record else 1
    ev_parent = np.zeros(ne, dtype=np.int32)
    ev_role = np.zeros(ne, dtype=np.int32)
    ev_yblock = np.zeros(ne, dtype=np.int32)
    ev_time = np.zeros(ne, dtype=np.int64)
    ev_sub_start = np.zeros(ne + 1, dtype=np.int32)
    sub_block = np.zeros(2 * ne, dtype=np.int32)
    sub_count = np.zeros(2 * ne, dtype=np.int64)
    nblocks, nev, nsub = _refine_loop_jit(
        n, nsr, pred_indptr, pred_indices,
        block_of, elems, pos, first, last, nblocks0,
        use_counts, record,
        np.zeros(n, dtype=np.int64),                       # counts
        np.zeros(n, dtype=np.int32),                       # touched
        np.zeros(n, dtype=np.int32),                       # tlist
        np.zeros(n + 1, dtype=np.int32),                   # tb_cnt
        np.zeros(n + 1, dtype=np.int32),                   # tb_start
        np.zeros(n + 1, dtype=np.int32),                   # tb_fill
        np.zeros(n, dtype=np.int32),                       # affected
        np.zeros(n, dtype=np.int64),                       # sort_keys
        np.zeros(3 * n * nsr + nsr + 8, dtype=np.int64),   # queue
        np.zeros(max(n * nsr, 1), dtype=np.uint8),         # in_l
        ev_parent, ev_role, ev_yblock, ev_time, ev_sub_start, sub_block, sub_count,
    )
    subs = list(zip(sub_block[:nsub].tolist(), sub_count[:nsub].tolist()))
    starts = ev_sub_start[:nev + 1].tolist()
    events = [(b, role, yblk, when, tuple(subs[starts[e]:starts[e + 1]]))
              for e, (b, role, yblk, when) in enumerate(zip(
                  ev_parent[:nev].tolist(), ev_role[:nev].tolist(),
                  ev_yblock[:nev].tolist(), ev_time[:nev].tolist()))]
    return block_of, int(nblocks), events


def _refine_list_loop(n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last,
                      nblocks0, use_counts, record):
    """_refine_loop for CPython: the same splits, run over Python lists.

    The arrays are read into lists on entry, because CPython indexes a
    list far faster than a numpy array, and only the block ids are
    written back; a dict of counts, a dict of per-block groups and a
    deque stand in for _refine_loop's scratch arrays.  Touched elements
    are ordered by sorted() on the keys _refine_loop hands to argsort;
    the keys are unique, so both orders, and hence block ids and the
    events, agree.
    """
    ptr = pred_indptr.tolist()
    idx = pred_indices.tolist()
    blk = block_of.tolist()
    el = elems.tolist()
    ps = pos.tolist()
    fst = first.tolist()
    lst = last.tolist()
    base = n + 1
    nblocks = nblocks0
    work = deque()
    queued = bytearray(n * nsr)
    events = []

    if use_counts:
        zmax = 0
        for b in range(1, nblocks0):
            if lst[b] - fst[b] > lst[zmax] - fst[zmax]:
                zmax = b
    else:
        zmax = -1
    for b in range(nblocks0):
        if b != zmax:
            for s in range(nsr):
                work.append(b * nsr + s)
                queued[b * nsr + s] = 1

    t = 0
    while work:
        pair = work.popleft()
        yblk, role = divmod(pair, nsr)
        queued[pair] = 0
        t += 1

        # cnt[x] = number of edges x -> (member of yblk) along role, in
        # first-touch order
        ip = ptr[role]
        cnt = {}
        get = cnt.get
        for y in el[fst[yblk]:lst[yblk]]:
            for x in idx[ip[y]:ip[y + 1]]:
                cnt[x] = get(x, 0) + 1
        if not cnt:
            continue

        groups = {}
        for x in cnt:
            b = blk[x]
            group = groups.get(b)
            if group is None:
                groups[b] = [x]
            else:
                group.append(x)

        for b, members in groups.items():
            fb = fst[b]
            lb = lst[b]
            sz = lb - fb
            ntb = len(members)
            if ntb == sz and (not use_counts or len({cnt[x] for x in members}) == 1):
                continue
            if use_counts:
                keys = sorted([cnt[x] * base + x for x in members])
                order = [k % base for k in keys]
                classes = [k // base for k in keys]
            else:
                order = sorted(members)

            # move touched elements to the back of the segment, in order
            tpos = lb - ntb
            for x in order:
                cur = ps[x]
                z = el[tpos]
                el[tpos] = x
                el[cur] = z
                ps[x] = tpos
                ps[z] = cur
                tpos += 1

            nu = sz - ntb
            first_new = nblocks
            subs = []
            residual_used = nu > 0
            if residual_used:
                lst[b] = fb + nu
                subs.append((b, 0))
            seg = fb + nu
            ii = 0
            while ii < ntb:
                if use_counts:
                    c = classes[ii]
                    jj = ii + 1
                    while jj < ntb and classes[jj] == c:
                        jj += 1
                else:
                    c = 1
                    jj = ntb
                end = seg + jj - ii
                if not residual_used:
                    cid = b
                    residual_used = True
                else:
                    cid = nblocks
                    nblocks += 1
                    for q in range(seg, end):
                        blk[el[q]] = cid
                fst[cid] = seg
                lst[cid] = end
                subs.append((cid, c))
                seg = end
                ii = jj
            if record:
                events.append((b, role, yblk, t, tuple(subs)))

            # worklist update, as in _refine_loop
            zbest = -1
            if use_counts:
                zbest = b
                zsize = lst[b] - fst[b]
                for cid in range(first_new, nblocks):
                    if lst[cid] - fst[cid] > zsize:
                        zbest = cid
                        zsize = lst[cid] - fst[cid]
            for s in range(nsr):
                if queued[b * nsr + s]:
                    for cid in range(first_new, nblocks):
                        work.append(cid * nsr + s)
                        queued[cid * nsr + s] = 1
                else:
                    if b != zbest:
                        work.append(b * nsr + s)
                        queued[b * nsr + s] = 1
                    for cid in range(first_new, nblocks):
                        if cid != zbest:
                            work.append(cid * nsr + s)
                            queued[cid * nsr + s] = 1

    block_of[:] = blk
    return block_of, nblocks, events


def active_engine() -> str:
    """The engine this install runs: numba when it imports, the list loop otherwise."""
    return "numba" if HAVE_NUMBA else "numpy"


def get_refine_loop(engine: str | None = None):
    """The loop of the named engine; None names the installed one."""
    if engine is None:
        engine = active_engine()
    if engine == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba is not importable in this environment")
        return _array_loop
    if engine == "numpy":
        return _refine_list_loop
    raise ValueError("engine must be numba or numpy, got %r" % engine)
