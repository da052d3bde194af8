"""Partition refinement inner loop: numba-compiled, or over Python lists.

Two sources implement one algorithm.  _refine_loop and _three_way_loop
work on preallocated numpy arrays and are compiled with numba's @njit
when numba imports; _array_loop allocates their scratch and trace
arrays, runs them and decodes the trace they record (the "numba"
engine).  _refine_list_loop is the same algorithm written for CPython
over Python lists, dicts and deques (the "numpy" engine), since
interpreting the array loops on numpy scalars is several times slower.
The engine is a fact of the install: numba when it imports, the list
loop otherwise.  compute_partition can still name either engine, so
that tests and `dlbisim bench` can compare them.

Both engines' loops take (n, nsr, pred_indptr, pred_indices, block_of,
elems, pos, first, last, nblocks0, use_counts, record), leave the final
block ids in block_of and return (block_of, block count, events,
compounds, counters).  An event is a (parent, role, splitter, time,
subs, compound) tuple, subs the (block id, class) pairs the parent split
into, in layout order, and compound a row of compounds or -1.
compounds is a (k, 3) int64 array; row (block, time, minus) is the set
the block held just before extraction `time` when minus is -1, and
compound `minus` without that set otherwise.  Each seeding extraction
adds a row, and a three-way step two, B and then S without B (as the
zone of its one block when only one is left).  Events and compounds are
recorded only when record is set.  counters is (splitter extractions,
edges scanned, splits, queue pushes).  Both loops give the same
partition, block ids, events, compounds and counters.  The test suite
establishes this: it compares _refine_list_loop with _array_loop over
the uncompiled kernels on random instances and on shapes that reach the
three-way phase, for every feature set, and with the compiled kernels
where numba imports.

Splitting discipline.  A worklist entry is a (block, splitter role)
pair.  Extracting one counts, for every element x, the edges x leads
into the block along that role.  With counting enabled the touched
elements of each affected block are regrouped by exact count (ascending,
ties on element id), the zero-count remainder keeps the parent id, and
the classic "skip one maximal sub-block" worklist economy applies: it is
sound here because counts are additive under block complement, provided
the initial partition is already stable with respect to the whole
domain (the caller pre-splits by per-role degree).

Without counting the split is binary (no edge / some edge), complement
reasoning is invalid, and refinement runs in two phases (Paige & Tarjan
1987, in the array form of Valmari 2009).  Seeding: every initial block
is queued once per role, a queued block that splits hands its entry to
all its sub-blocks, and no other sub-block is queued, so each element is
scanned once per role and the partition ends stable with respect to
every scanned set.  Per role, the scanned sets partition the domain into
compounds, each a union of blocks.  Three-way phase: while some compound
S holds two blocks, the smaller B of its first two blocks becomes a
compound of its own, and every block is split against B and S without B
by the in-edges of B alone, with per-(element, role, compound) edge
counts: class 0 has no edge into B, class 1 edges into B and into S
without B, class 2 edges into B only.  Each element's compound at least
halves whenever its in-edges are scanned, which bounds the edges scanned
by O(m log n).
"""

from bisect import bisect_left
from collections import deque

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is an optional extra; _refine_list_loop runs without it
    HAVE_NUMBA = False

def _cut_block(b, keys, base_key, nblocks, block_of, elems, pos, first, last,
               record, sub_block, sub_count, nsub):
    """Split block b by its touched elements, keys = class * base_key + x
    in ascending order: they move to the back of b's segment in key order,
    one sub-block per class; the untouched rest is class 0 and keeps b."""
    ntb = len(keys)
    fb = first[b]
    lb = last[b]
    tpos = lb - ntb
    for oi in range(ntb):
        x = int(keys[oi] % base_key)
        cur = pos[x]
        z = elems[tpos]
        elems[tpos] = x
        elems[cur] = z
        pos[x] = tpos
        pos[z] = cur
        tpos += 1

    nu = lb - fb - ntb
    residual_used = False
    if nu > 0:
        last[b] = fb + nu
        residual_used = True
        if record:
            sub_block[nsub] = b
            sub_count[nsub] = 0
            nsub += 1
    seg = fb + nu
    ii = 0
    while ii < ntb:
        cnt = keys[ii] // base_key
        jj = ii
        while jj < ntb and keys[jj] // base_key == cnt:
            jj += 1
        size_c = jj - ii
        if not residual_used:
            cid = b
            residual_used = True
        else:
            cid = nblocks
            nblocks += 1
            for qq in range(seg, seg + size_c):
                block_of[elems[qq]] = cid
        first[cid] = seg
        last[cid] = seg + size_c
        if record:
            sub_block[nsub] = cid
            sub_count[nsub] = cnt
            nsub += 1
        seg += size_c
        ii = jj
    return nblocks, nsub


def _bucket(nt, touched, block_of, tb_cnt, tb_start, tb_fill, affected, tlist):
    """Group touched[:nt] by current block: the affected blocks in
    first-touch order, and block b's elements at tlist[tb_start[b]:] in
    touch order, tb_cnt[b] of them.  Returns the number of blocks."""
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
    return na


if HAVE_NUMBA:
    _cut_block_jit = njit(cache=True)(_cut_block)
    _bucket_jit = njit(cache=True)(_bucket)
else:
    _cut_block_jit = _cut_block
    _bucket_jit = _bucket


def _refine_loop(n, nsr, pred_indptr, pred_indices,
                 block_of, elems, pos, first, last, nblocks0,
                 use_counts, record,
                 counts, touched, tlist, tb_cnt, tb_start, tb_fill, affected,
                 sort_keys, queue, in_l,
                 ev_parent, ev_role, ev_yblock, ev_time, ev_sub_start,
                 sub_block, sub_count, ext, counters):
    """The counting loop, or the seeding phase; ext[:, e] = (role, block,
    first, last) of extraction e, recorded without counting."""
    nblocks = nblocks0
    qhead = 0
    qtail = 0
    nev = 0
    nsub = 0
    ev_sub_start[0] = 0
    base_key = np.int64(n + 1)

    zmax = -1
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

    t = 0
    while qhead < qtail:
        pair = queue[qhead]
        qhead += 1
        yblk = int(pair // nsr)
        role = int(pair % nsr)
        in_l[pair] = 0
        if not use_counts:
            ext[0, t] = role
            ext[1, t] = yblk
            ext[2, t] = first[yblk]
            ext[3, t] = last[yblk]
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
            counters[1] += pred_indptr[role, y + 1] - pred_indptr[role, y]
        if nt == 0:
            continue

        na = _bucket_jit(nt, touched, block_of, tb_cnt, tb_start, tb_fill, affected, tlist)
        for k in range(na):
            b = affected[k]
            sz = last[b] - first[b]
            ntb = tb_cnt[b]
            s0 = tb_start[b]
            tb_cnt[b] = 0

            for ii in range(ntb):
                x = tlist[s0 + ii]
                c = counts[x] if use_counts else 1
                sort_keys[ii] = c * base_key + x
            keys = np.sort(sort_keys[:ntb])
            if ntb == sz and keys[0] // base_key == keys[ntb - 1] // base_key:
                continue

            if record:
                ev_parent[nev] = b
                ev_role[nev] = role
                ev_yblock[nev] = yblk
                ev_time[nev] = t
            first_new = nblocks
            nblocks, nsub = _cut_block_jit(b, keys, base_key, nblocks, block_of, elems, pos,
                                           first, last, record, sub_block, sub_count, nsub)
            counters[2] += 1
            if record:
                nev += 1
                ev_sub_start[nev] = nsub

            # worklist update: replace a queued parent by all sub-blocks;
            # otherwise, with counting, queue all sub-blocks but a maximal one
            zbest = b
            if use_counts:
                zsize = last[b] - first[b]
                for cid in range(first_new, nblocks):
                    if last[cid] - first[cid] > zsize:
                        zbest = cid
                        zsize = last[cid] - first[cid]
            for s in range(nsr):
                if in_l[b * nsr + s] != 0:
                    for cid in range(first_new, nblocks):
                        queue[qtail] = np.int64(cid) * nsr + s
                        qtail += 1
                        in_l[cid * nsr + s] = 1
                elif use_counts:
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

    counters[0] += t
    counters[3] += qtail
    return nblocks, nev, nsub


def _three_way_loop(n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last,
                    nblocks, record, comp, head, nbl, nlive, crole, ncomp, nxt, prv, work,
                    qtail, rec, rc, nrec, free, newrec, oldrec, touched, tlist, tb_cnt, tb_start,
                    tb_fill, affected, sort_keys, counters,
                    ev_parent, ev_role, ev_yblock, ev_time, ev_sub_start, ev_compound,
                    sub_block, sub_count, nev, nsub, cm, ncm, ctid):
    """The three-way phase over the state _compound_setup built; cm[:, k]
    = (block, time, minus) of compound entry k."""
    base_key = np.int64(n + 1)
    qhead = 0
    nfree = 0
    t = counters[0]
    while qhead < qtail and nblocks < n:
        c = work[qhead]
        qhead += 1
        s = crole[c]
        b1 = head[c]
        b2 = nxt[b1 * nsr + s]
        bb = b1
        if last[b2] - first[b2] < last[b1] - first[b1]:
            bb = b2
        # bb leaves S's block list and becomes a compound of its own
        sl = bb * nsr + s
        p = prv[sl]
        q = nxt[sl]
        if p < 0:
            head[c] = q
        else:
            nxt[p * nsr + s] = q
        if q >= 0:
            prv[q * nsr + s] = p
        nxt[sl] = -1
        prv[sl] = -1
        nbl[c] -= 1
        cb = ncomp
        ncomp += 1
        crole[cb] = s
        head[cb] = bb
        nbl[cb] = 1
        comp[sl] = cb
        t += 1
        sc = -1
        if record:
            sc = ctid[c]
            cm[0, ncm] = bb
            cm[1, ncm] = t
            cm[2, ncm] = -1
            ctid[cb] = ncm
            cm[1, ncm + 1] = t
            if nbl[c] == 1:
                cm[0, ncm + 1] = head[c]
                cm[2, ncm + 1] = -1
            else:
                cm[0, ncm + 1] = bb
                cm[2, ncm + 1] = sc
            ctid[c] = ncm + 1
            ncm += 2

        # move bb's in-edges along s from their records (x, s, S) to new
        # records (x, s, {bb}); a singleton block never splits, so its
        # elements keep no records
        nt = 0
        for i in range(first[bb], last[bb]):
            y = elems[i]
            for j in range(pred_indptr[s, y], pred_indptr[s, y + 1]):
                x = pred_indices[j]
                if last[block_of[x]] - first[block_of[x]] == 1:
                    continue
                r = rec[j]
                rc[r] -= 1
                nr = newrec[x]
                if nr < 0:
                    if nfree > 0:
                        nfree -= 1
                        nr = free[nfree]
                    else:
                        nr = nrec
                        nrec += 1
                    rc[nr] = 0
                    newrec[x] = nr
                    oldrec[x] = r
                    touched[nt] = x
                    nt += 1
                rc[nr] += 1
                rec[j] = nr
            counters[1] += pred_indptr[s, y + 1] - pred_indptr[s, y]

        # free the records (x, s, S) that lost their last edge
        nlive[cb] += nt
        for i in range(nt):
            x = touched[i]
            if rc[oldrec[x]] == 0:
                free[nfree] = oldrec[x]
                nfree += 1
                nlive[c] -= 1
        if nbl[c] >= 2 and nlive[c] > 0:
            work[qtail] = c
            qtail += 1

        na = _bucket_jit(nt, touched, block_of, tb_cnt, tb_start, tb_fill, affected, tlist)
        for k in range(na):
            b = affected[k]
            sz = last[b] - first[b]
            ntb = tb_cnt[b]
            s0 = tb_start[b]
            tb_cnt[b] = 0
            for ii in range(ntb):
                x = tlist[s0 + ii]
                cls = 1 if rc[oldrec[x]] > 0 else 2
                sort_keys[ii] = cls * base_key + x
            keys = np.sort(sort_keys[:ntb])
            if ntb == sz and keys[0] // base_key == keys[ntb - 1] // base_key:
                continue

            if record:
                ev_parent[nev] = b
                ev_role[nev] = s
                ev_yblock[nev] = bb
                ev_time[nev] = t
                ev_compound[nev] = sc
            first_new = nblocks
            nblocks, nsub = _cut_block_jit(b, keys, base_key, nblocks, block_of, elems, pos,
                                           first, last, record, sub_block, sub_count, nsub)
            counters[2] += 1
            if record:
                nev += 1
                ev_sub_start[nev] = nsub

            # sub-blocks follow their parent into its compound of every
            # role, right after it; a compound reaching two blocks is queued
            for s2 in range(nsr):
                ps = b * nsr + s2
                pc = comp[ps]
                for cid in range(first_new, nblocks):
                    cs = cid * nsr + s2
                    comp[cs] = pc
                    q = nxt[ps]
                    nxt[cs] = q
                    prv[cs] = b
                    nxt[ps] = cid
                    if q >= 0:
                        prv[q * nsr + s2] = cid
                    nbl[pc] += 1
                    if nbl[pc] == 2 and nlive[pc] > 0:
                        work[qtail] = pc
                        qtail += 1

        for i in range(nt):
            x = touched[i]
            newrec[x] = -1

    counters[0] = t
    counters[3] += qtail
    return nblocks, nev, nsub, ncm


if HAVE_NUMBA:
    _refine_loop_jit = njit(cache=True)(_refine_loop)
    _three_way_loop_jit = njit(cache=True)(_three_way_loop)
else:
    _refine_loop_jit = _refine_loop
    _three_way_loop_jit = _three_way_loop


def _compound_setup(n, nsr, pred_indptr, pred_indices, pos, first, last, nblocks, ext):
    """The three-way phase's start state, from the seeding's extractions.

    Extraction e scanned, along role ext[0, e], the elements then at
    positions ext[2, e]..ext[3, e]-1 of elems.  Elements never leave a
    block's segment, so the same elements are there now: they form
    compound e.  Per role, the compounds partition the domain and each
    block lies inside one of them.

    A singleton block never splits, so only elements of larger blocks
    keep records, and a compound that none of them has edges into never
    needs splitting: nlive[c] counts the records (x, c) that elements
    made while in larger blocks, an upper bound on the elements of such
    blocks with edges into c, and only compounds with live records are
    queued.

    Returns comp (block * nsr + role -> compound), nxt and prv (each
    compound's blocks as a list linked per block slot, in id order),
    head, nbl and nlive (first block, block count and live records per
    compound), crole (the compound's role), the queue of compounds
    holding two blocks or more and live records, rec (edge position in
    pred_indices -> record, or -1), and rkey and rc (record -> x * (n *
    nsr + 1) + compound, and its edge count): one record per element of
    a larger block and compound the element has edges into.  The arrays
    have room for every compound, block and record the phase can create.
    """
    ncomp = ext.shape[1]
    m = len(pred_indices)
    comp = np.full(n * nsr, -1, dtype=np.int64)
    nxt = np.full(n * nsr, -1, dtype=np.int64)
    prv = np.full(n * nsr, -1, dtype=np.int64)
    # per role the compounds stay disjoint and non-empty: at most n each
    head = np.full(n * nsr + 1, -1, dtype=np.int64)
    nbl = np.zeros(n * nsr + 1, dtype=np.int64)
    nlive = np.zeros(n * nsr + 1, dtype=np.int64)
    crole = np.zeros(n * nsr + 1, dtype=np.int64)
    crole[:ncomp] = ext[0]
    # live records hold at least one edge each; a step leaves at most one
    # emptied record per touched element until it frees them
    rec = np.full(m, -1, dtype=np.int64)
    rkey = np.zeros(m, dtype=np.int64)
    rc = np.zeros(m + n + 1, dtype=np.int64)
    nrec = 0
    blocks = np.arange(nblocks, dtype=np.int64)
    elements = np.arange(n, dtype=np.int64)
    sizes = last[:nblocks] - first[:nblocks]
    in_order = np.argsort(first[:nblocks])
    big_at = np.repeat(sizes[in_order] > 1, sizes[in_order])  # position -> in a larger block
    for s in range(nsr):
        mine = np.flatnonzero(ext[0] == s)
        mine = mine[np.argsort(ext[2, mine])]
        comp_at = np.repeat(mine, ext[3, mine] - ext[2, mine])  # position -> compound
        cb = comp_at[first[:nblocks]]
        comp[blocks * nsr + s] = cb
        order = np.argsort(cb, kind="stable")
        ob, oc = blocks[order], cb[order]
        same = oc[1:] == oc[:-1]
        nxt[ob[:-1] * nsr + s] = np.where(same, ob[1:], -1)
        prv[ob[1:] * nsr + s] = np.where(same, ob[:-1], -1)
        lead = np.concatenate(([True], ~same))
        head[oc[lead]] = ob[lead]
        nbl[:ncomp] += np.bincount(cb, minlength=ncomp)

        lo, hi = int(pred_indptr[s, 0]), int(pred_indptr[s, n])
        tails = pred_indices[lo:hi].astype(np.int64)
        heads = np.repeat(elements, np.diff(pred_indptr[s]))
        live = np.flatnonzero(big_at[pos[tails]])
        keys = tails[live] * (n * nsr + 1) + comp_at[pos[heads[live]]]
        uniq, rec_of, edges = np.unique(keys, return_inverse=True, return_counts=True)
        rec[lo + live] = rec_of.reshape(-1) + nrec
        rkey[nrec:nrec + len(uniq)] = uniq
        rc[nrec:nrec + len(uniq)] = edges
        nrec += len(uniq)
        nlive[:ncomp] += np.bincount(uniq % (n * nsr + 1), minlength=ncomp)
    queue = np.flatnonzero((nbl[:ncomp] >= 2) & (nlive[:ncomp] > 0))
    return comp, nxt, prv, head, nbl, nlive, crole, queue, rec, rkey[:nrec], rc


def _seed_compounds(ext):
    """Compound entries (block, time, -1) of the seeding extractions, given
    as ext[:, e] = (role, block, first, last) for extraction e at time e + 1."""
    k = ext.shape[1]
    return np.stack([ext[1], np.arange(1, k + 1), np.full(k, -1)], axis=1).astype(np.int64)


def _array_loop(n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last,
                nblocks0, use_counts, record):
    """_refine_loop_jit and _three_way_loop_jit on fresh scratch and trace
    arrays, their events decoded."""
    # every split makes a new block: at most n events and 2n sub-blocks
    ne = n + 1 if record else 1
    ev_parent = np.zeros(ne, dtype=np.int32)
    ev_role = np.zeros(ne, dtype=np.int32)
    ev_yblock = np.zeros(ne, dtype=np.int32)
    ev_time = np.zeros(ne, dtype=np.int64)
    ev_sub_start = np.zeros(ne + 1, dtype=np.int32)
    ev_compound = np.full(ne, -1, dtype=np.int64)
    sub_block = np.zeros(2 * ne, dtype=np.int32)
    sub_count = np.zeros(2 * ne, dtype=np.int64)
    counters = np.zeros(4, dtype=np.int64)   # extractions, edges scanned, splits, pushes
    touched = np.zeros(n, dtype=np.int32)
    tlist = np.zeros(n, dtype=np.int32)
    tb_cnt = np.zeros(n + 1, dtype=np.int32)
    tb_start = np.zeros(n + 1, dtype=np.int32)
    tb_fill = np.zeros(n + 1, dtype=np.int32)
    affected = np.zeros(n, dtype=np.int32)
    sort_keys = np.zeros(n, dtype=np.int64)
    # seeding scans each element once per role: at most n * nsr extractions
    ext = np.zeros((4, 1 if use_counts else n * nsr + 1), dtype=np.int64)
    nblocks, nev, nsub = _refine_loop_jit(
        n, nsr, pred_indptr, pred_indices,
        block_of, elems, pos, first, last, nblocks0,
        use_counts, record,
        np.zeros(n, dtype=np.int64),                       # counts
        touched, tlist, tb_cnt, tb_start, tb_fill, affected, sort_keys,
        np.zeros(3 * n * nsr + nsr + 8, dtype=np.int64),   # queue
        np.zeros(max(n * nsr, 1), dtype=np.uint8),         # in_l
        ev_parent, ev_role, ev_yblock, ev_time, ev_sub_start, sub_block, sub_count,
        ext, counters,
    )
    ncm = 0
    cm = np.zeros((3, 1), dtype=np.int64)
    if not use_counts:
        nseed = int(counters[0])
        ext = ext[:, :nseed]
        if record:
            # each three-way step adds two entries
            cm = np.zeros((3, nseed + 2 * n * nsr + 1), dtype=np.int64)
            cm[:, :nseed] = _seed_compounds(ext).T
            ncm = nseed
        # with as many compounds per role as blocks, none holds two blocks
        if nblocks < n and nseed < nblocks * nsr:
            comp, nxt, prv, head, nbl, nlive, crole, queue, rec, rkey, rc = _compound_setup(
                n, nsr, pred_indptr, pred_indices, pos, first, last, nblocks, ext)
            counters[1] += len(pred_indices)
            work = np.zeros(2 * n * nsr + 2, dtype=np.int64)
            work[:len(queue)] = queue
            nblocks, nev, nsub, ncm = _three_way_loop_jit(
                n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last,
                nblocks, record, comp, head, nbl, nlive, crole, nseed, nxt, prv, work, len(queue),
                rec, rc, len(rkey), np.zeros(len(rc), dtype=np.int64),   # free
                np.full(n, -1, dtype=np.int64), np.zeros(n, dtype=np.int64),  # newrec, oldrec
                touched, tlist, tb_cnt, tb_start, tb_fill, affected, sort_keys, counters,
                ev_parent, ev_role, ev_yblock, ev_time, ev_sub_start, ev_compound,
                sub_block, sub_count, nev, nsub, cm, ncm,
                np.arange(n * nsr + 1, dtype=np.int64) if record else cm[0],  # ctid
            )
    subs = list(zip(sub_block[:nsub].tolist(), sub_count[:nsub].tolist()))
    starts = ev_sub_start[:nev + 1].tolist()
    events = [(b, role, yblk, when, tuple(subs[starts[e]:starts[e + 1]]), sc)
              for e, (b, role, yblk, when, sc) in enumerate(zip(
                  ev_parent[:nev].tolist(), ev_role[:nev].tolist(),
                  ev_yblock[:nev].tolist(), ev_time[:nev].tolist(),
                  ev_compound[:nev].tolist()))]
    return block_of, int(nblocks), events, cm[:, :ncm].T.copy(), tuple(counters.tolist())


def _cut_list(b, keys, base, blk, el, ps, fst, lst, nblocks):
    """_cut_block over lists; returns the block count and the subs."""
    ntb = len(keys)
    fb = fst[b]
    lb = lst[b]
    tpos = lb - ntb
    for k in keys:
        x = k % base
        cur = ps[x]
        z = el[tpos]
        el[tpos] = x
        el[cur] = z
        ps[x] = tpos
        ps[z] = cur
        tpos += 1

    nu = lb - fb - ntb
    subs = []
    if nu:
        lst[b] = fb + nu
        subs.append((b, 0))
    seg = fb + nu
    ii = 0
    while ii < ntb:
        c = keys[ii] // base
        jj = bisect_left(keys, (c + 1) * base, ii)
        end = seg + jj - ii
        if subs:
            cid = nblocks
            nblocks += 1
            for q in range(seg, end):
                blk[el[q]] = cid
        else:
            cid = b
        fst[cid] = seg
        lst[cid] = end
        subs.append((cid, c))
        seg = end
        ii = jj
    return nblocks, subs


def _refine_list_loop(n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last,
                      nblocks0, use_counts, record):
    """_refine_loop and _three_way_loop for CPython, run over Python lists.

    The arrays are read into lists on entry, because CPython indexes a
    list far faster than a numpy array, and only the block ids are
    written back; dicts of counts and per-block groups and deques stand
    in for the kernels' scratch arrays.  Touched elements are ordered by
    sorted() on the keys the kernels sort; the keys are unique, so both
    orders, and hence block ids and the events, agree.
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
    ext = []        # role, block, first, last of each seeding extraction, flat
    scanned = 0
    splits = 0

    zmax = -1
    if use_counts:
        zmax = 0
        for b in range(1, nblocks0):
            if lst[b] - fst[b] > lst[zmax] - fst[zmax]:
                zmax = b
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
        if not use_counts:
            ext += (role, yblk, fst[yblk], lst[yblk])
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
        scanned += sum(cnt.values())

        groups = {}
        for x in cnt:
            b = blk[x]
            group = groups.get(b)
            if group is None:
                groups[b] = [x]
            else:
                group.append(x)

        for b, members in groups.items():
            ntb = len(members)
            if ntb == lst[b] - fst[b] and (not use_counts or len({cnt[x] for x in members}) == 1):
                continue
            if use_counts:
                keys = sorted([cnt[x] * base + x for x in members])
            else:
                keys = sorted([base + x for x in members])
            first_new = nblocks
            nblocks, subs = _cut_list(b, keys, base, blk, el, ps, fst, lst, nblocks)
            splits += 1
            if record:
                events.append((b, role, yblk, t, tuple(subs), -1))

            # worklist update, as in _refine_loop
            zbest = b
            if use_counts:
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
                elif use_counts:
                    if b != zbest:
                        work.append(b * nsr + s)
                        queued[b * nsr + s] = 1
                    for cid in range(first_new, nblocks):
                        if cid != zbest:
                            work.append(cid * nsr + s)
                            queued[cid * nsr + s] = 1

    # the queue drained: every push was one extraction
    counters = [t, scanned, splits, t]
    ext = np.array(ext, dtype=np.int64).reshape(-1, 4).T
    made = []       # block, time, minus of each three-way compound entry, flat
    # with as many compounds per role as blocks, none holds two blocks
    if not use_counts and nblocks < n and t < nblocks * nsr:
        setup = _compound_setup(n, nsr, pred_indptr, pred_indices, np.array(ps, dtype=np.int64),
                                np.array(fst, dtype=np.int64), np.array(lst, dtype=np.int64),
                                nblocks, ext)
        counters[1] += len(idx)
        nblocks = _three_way_list_loop(n, nsr, ptr, idx, blk, el, ps, fst, lst, nblocks,
                                       setup, record, events, made, counters)
    compounds = np.zeros((0, 3), dtype=np.int64)
    if record:
        compounds = np.concatenate((_seed_compounds(ext),
                                    np.array(made, dtype=np.int64).reshape(-1, 3)))
    block_of[:] = blk
    return block_of, nblocks, events, compounds, tuple(counters)


def _three_way_list_loop(n, nsr, ptr, idx, blk, el, ps, fst, lst, nblocks, setup,
                         record, events, made, counters):
    """_three_way_loop over lists; appends to events, to made (the step's
    compound entries, flat) and to counters, and returns the block count.

    The records are a dict from x * (n * nsr + 1) + compound to x's edge
    count into the compound, so a step counts edges per touched element
    instead of moving each edge between records.
    """
    comp, nxt, prv, head, nbl, nlive, crole, queue, _, rkey, rc = setup
    comp, nxt, prv, head, nbl, nlive, crole = (
        a.tolist() for a in (comp, nxt, prv, head, nbl, nlive, crole))
    recs = dict(zip(rkey.tolist(), rc[:len(rkey)].tolist()))
    kc = n * nsr + 1
    work = deque(queue.tolist())
    ncomp = ncomp0 = counters[0]
    ctid = list(range(kc)) if record else None
    base = n + 1
    base2 = 2 * base
    t, scanned, splits, pushes = counters
    pushes += len(work)
    while work and nblocks < n:
        c = work.popleft()
        s = crole[c]
        b1 = head[c]
        b2 = nxt[b1 * nsr + s]
        bb = b2 if lst[b2] - fst[b2] < lst[b1] - fst[b1] else b1
        # bb leaves S's block list and becomes a compound of its own
        sl = bb * nsr + s
        p = prv[sl]
        q = nxt[sl]
        if p < 0:
            head[c] = q
        else:
            nxt[p * nsr + s] = q
        if q >= 0:
            prv[q * nsr + s] = p
        nxt[sl] = prv[sl] = -1
        nbl[c] -= 1
        cb = ncomp
        ncomp += 1
        crole[cb] = s
        head[cb] = bb
        nbl[cb] = 1
        comp[sl] = cb
        t += 1
        sc = -1
        if record:
            sc = ctid[c]
            ctid[cb] = ncomp0 + len(made) // 3
            ctid[c] = ctid[cb] + 1
            made += (bb, t, -1)
            made += (head[c], t, -1) if nbl[c] == 1 else (bb, t, sc)

        # cnt[x] = number of edges x -> (member of bb) along s
        ip = ptr[s]
        cnt = {}
        get = cnt.get
        for y in el[fst[bb]:lst[bb]]:
            for x in idx[ip[y]:ip[y + 1]]:
                cnt[x] = get(x, 0) + 1
        scanned += sum(cnt.values())

        # move the counts from the records (x, S) to (x, {bb}), and group
        # the touched elements of blocks that can split by block, keyed
        # class * base + x
        groups = {}
        fresh = emptied = 0
        for x, k in cnt.items():
            b = blk[x]
            if lst[b] - fst[b] == 1:
                continue
            fresh += 1
            xk = x * kc
            recs[xk + cb] = k
            old = xk + c
            left = recs[old] - k
            if left:
                recs[old] = left
                key = base + x
            else:
                del recs[old]
                emptied += 1
                key = base2 + x
            group = groups.get(b)
            if group is None:
                groups[b] = [key]
            else:
                group.append(key)
        nlive[cb] += fresh
        nlive[c] -= emptied
        if nbl[c] >= 2 and nlive[c]:
            work.append(c)
            pushes += 1

        for b, keys in groups.items():
            keys.sort()
            if len(keys) == lst[b] - fst[b] and keys[0] // base == keys[-1] // base:
                continue
            first_new = nblocks
            nblocks, subs = _cut_list(b, keys, base, blk, el, ps, fst, lst, nblocks)
            splits += 1
            if record:
                events.append((b, s, bb, t, tuple(subs), sc))

            # sub-blocks follow their parent into its compound of every
            # role, right after it; a compound reaching two blocks is queued
            for s2 in range(nsr):
                bs = b * nsr + s2
                pc = comp[bs]
                for cid in range(first_new, nblocks):
                    cs = cid * nsr + s2
                    comp[cs] = pc
                    q = nxt[bs]
                    nxt[cs] = q
                    prv[cs] = b
                    nxt[bs] = cid
                    if q >= 0:
                        prv[q * nsr + s2] = cid
                    nbl[pc] += 1
                    if nbl[pc] == 2 and nlive[pc]:
                        work.append(pc)
                        pushes += 1
    counters[:] = [t, scanned, splits, pushes]
    return nblocks


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
