"""Partition refinement inner loop: numba-compiled, or over Python lists.

Two sources implement one algorithm.  _three_way_loop works on
preallocated numpy arrays and is compiled with numba's @njit when numba
imports; _array_loop allocates its scratch arrays and runs it (the
"numba" engine).  _refine_list_loop is
the same loop written for CPython over Python lists and dicts (the
"numpy" engine), since interpreting the array loop on numpy scalars is
several times slower.  The engine is a fact of the install: numba when
it imports, the list loop otherwise.  compute_partition can still name
either engine, so that tests and `dlbisim bench` can compare them.

Both engines' loops take (n, nsr, pred_indptr, pred_indices, block_of,
elems, pos, first, last, nblocks0, against, n_against, pairs,
use_counts), leave the final block ids in block_of and return
(block_of, block count, counters), counters being (steps, edges
scanned, splits, queue pushes).  Both loops give the same partition,
block ids and counters.  The test suite establishes this: it compares
_refine_list_loop with _array_loop over the uncompiled kernels on
random instances and on adversarial shapes, for every feature set, and
with the compiled kernels where numba imports.

Splitting discipline: three-way splits against compound splitters
(Paige & Tarjan 1987, in the array form of Valmari 2009).  The loop's
start state is compounds = blocks of a coarser stable partition: the
caller passes the blocks of block_of and a coarser partition against,
of n_against blocks, that every block is stable with respect to along
every splitter role (with counting, the elements of a block have equal
numbers of edges into each of its blocks; without, all or none of them
have one).  Each block of against is the first compound of every role: the
blocks the last signature round split (see refine).  Per role,
compounds are unions of blocks that partition the domain, and every
block is stable with respect to every compound.  A step takes a
compound S of two blocks or more; the smaller B of its first two blocks
becomes a compound of its own, and every block is split against B and
S without B by the in-edges of B alone.  With counting, the class is the
number of edges into B (0 for no edge): a block's elements have equal
counts into S, so their counts into S without B follow.  Without
counting, per-(element, compound) edge counts give three classes: 0 has
no edge into B, 1 edges into B and into S without B, 2 edges into B
only.  Each element's compound at least halves whenever its in-edges
are scanned, which bounds the edges scanned by O(m log n).  Sub-blocks
join their parent's compound of every role at its tail, so B is the
smaller of the compound's two oldest blocks.
"""

from bisect import bisect_left

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is an optional extra; _refine_list_loop runs without it
    HAVE_NUMBA = False


def _cut_block(b, keys, base_key, nblocks, block_of, elems, pos, first, last):
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
        seg += size_c
        ii = jj
    return nblocks


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


def _three_way_loop(n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last,
                    nblocks, use_counts, nroot, comp, head, tail, nbl, nlive, crole, nxt, prv,
                    work, qtail, rec, rc, nrec, counts, newrec, oldrec, free, touched, tlist,
                    tb_cnt, tb_start, tb_fill, affected, sort_keys, counters):
    """The loop over the state _compound_setup built, with nroot root
    compounds.  Returns the block count."""
    base_key = np.int64(n + 1)
    qhead = 0
    nfree = 0
    ncomp = nroot
    t = 0
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
        else:
            tail[c] = p
        nxt[sl] = -1
        prv[sl] = -1
        nbl[c] -= 1
        cb = ncomp
        ncomp += 1
        crole[cb] = s
        head[cb] = bb
        tail[cb] = bb
        nbl[cb] = 1
        comp[sl] = cb
        t += 1

        # counts[x] = number of edges x -> (member of bb) along s, for x in
        # larger blocks (a singleton block never splits); without counting,
        # the edges also move from their records (x, S) to new records
        # (x, {bb})
        nt = 0
        for i in range(first[bb], last[bb]):
            y = elems[i]
            for j in range(pred_indptr[s, y], pred_indptr[s, y + 1]):
                x = pred_indices[j]
                if last[block_of[x]] - first[block_of[x]] == 1:
                    continue
                if counts[x] == 0:
                    touched[nt] = x
                    nt += 1
                    if not use_counts:
                        oldrec[x] = rec[j]
                        if nfree > 0:
                            nfree -= 1
                            newrec[x] = free[nfree]
                        else:
                            newrec[x] = nrec
                            nrec += 1
                counts[x] += 1
                if not use_counts:
                    rec[j] = newrec[x]
            counters[1] += pred_indptr[s, y + 1] - pred_indptr[s, y]

        nlive[cb] = nt
        # free the records (x, S) that lost their last edge
        if not use_counts:
            for i in range(nt):
                x = touched[i]
                rc[newrec[x]] = counts[x]
                r = oldrec[x]
                rc[r] -= counts[x]
                if rc[r] == 0:
                    free[nfree] = r
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
                if use_counts:
                    cls = counts[x]
                elif rc[oldrec[x]] > 0:
                    cls = 1
                else:
                    cls = 2
                sort_keys[ii] = cls * base_key + x
            keys = np.sort(sort_keys[:ntb])
            if ntb == sz and keys[0] // base_key == keys[ntb - 1] // base_key:
                continue

            first_new = nblocks
            nblocks = _cut_block_jit(b, keys, base_key, nblocks, block_of, elems, pos, first,
                                     last)
            counters[2] += 1

            # sub-blocks follow their parent into its compound of every
            # role, at its tail; a compound reaching two blocks is queued
            for s2 in range(nsr):
                pc = comp[b * nsr + s2]
                for cid in range(first_new, nblocks):
                    cs = cid * nsr + s2
                    comp[cs] = pc
                    nxt[tail[pc] * nsr + s2] = cid
                    prv[cs] = tail[pc]
                    tail[pc] = cid
                    nbl[pc] += 1
                    if nbl[pc] == 2 and nlive[pc] > 0:
                        work[qtail] = pc
                        qtail += 1

        for i in range(nt):
            counts[touched[i]] = 0

    counters[0] = t
    counters[3] = qtail
    return nblocks


if HAVE_NUMBA:
    _three_way_loop_jit = njit(cache=True)(_three_way_loop)
else:
    _three_way_loop_jit = _three_way_loop


def _compound_setup(n, nsr, block_of, first, last, nblocks, against, n_against, pairs,
                    use_counts):
    """The loop's start state: compounds = blocks of a coarser stable partition.

    against[x] is the block of element x in a coarser partition of
    n_against blocks that every block is stable against along every
    splitter role.  Compound s * n_against + C, for splitter role s and
    block C of it, holds the blocks inside C, in id order; when against
    has one block (all 0), compound s is the whole domain along s.
    pairs = (keys, distinct, count) are the (element, compound) pairs
    over the edges, each as the key element * nsr * n_against + compound:
    the key of each edge of pred_indices, the distinct keys in ascending
    order, and the number of edges of each.

    A singleton block never splits.  So, without counting, only elements
    of larger blocks keep records: one per pair, counting its edges.
    nlive[c] is the number of elements of larger blocks that had edges
    into compound c when it was made, less the records (x, c) emptied
    since; a compound with none is never split, because no larger block
    could split against it.

    Returns comp (block * nsr + role -> compound), nxt and prv (each
    compound's blocks as a list linked per block slot), head, tail, nbl,
    nlive and crole (first and last block, block count, live count and
    role per compound), the queue of root compounds to split, live
    (whether each pair is a record), and rkey and rc (record -> x * (n *
    nsr + 1) + compound, and its edge count).  The arrays have room for
    every compound, block and record the loop can create.
    """
    kc = n * nsr + 1
    nroot = nsr * n_against
    # the blocks grouped by the block of against that holds them
    aof = np.empty(nblocks, dtype=np.int64)
    aof[block_of] = against
    order = np.argsort(aof, kind="stable")
    size = np.bincount(aof, minlength=n_against)
    ends = np.cumsum(size)
    link = np.flatnonzero(aof[order[1:]] == aof[order[:-1]])
    comp = np.empty((n, nsr), dtype=np.int64)
    nxt = np.full((n, nsr), -1, dtype=np.int64)
    prv = np.full((n, nsr), -1, dtype=np.int64)
    comp[:nblocks] = np.arange(nsr) * n_against + aof[:, None]
    nxt[order[link]] = order[link + 1, None]
    prv[order[link + 1]] = order[link, None]
    # per role the compounds stay disjoint and non-empty: at most n each
    head = np.zeros(kc, dtype=np.int64)
    tail = np.zeros(kc, dtype=np.int64)
    nbl = np.zeros(kc, dtype=np.int64)
    nlive = np.zeros(kc, dtype=np.int64)
    crole = np.zeros(kc, dtype=np.int64)
    head[:nroot].reshape(nsr, n_against)[:] = order[ends - size]
    tail[:nroot].reshape(nsr, n_against)[:] = order[ends - 1]
    nbl[:nroot].reshape(nsr, n_against)[:] = size
    crole[:nroot] = np.arange(nroot) // n_against
    keys, distinct, count = pairs
    owner, pcomp = np.divmod(distinct, nroot)
    live = (last[:nblocks] - first[:nblocks] > 1)[block_of][owner]
    nlive[:nroot] = np.bincount(pcomp[live], minlength=nroot)
    # live records hold at least one edge each; a step makes at most one
    # record per touched element before it frees the emptied ones
    rc = np.zeros((0 if use_counts else len(keys)) + n + 1, dtype=np.int64)
    rkey = np.zeros(0, dtype=np.int64)
    if not use_counts:
        rkey = owner[live] * kc + pcomp[live]
        rc[:len(rkey)] = count[live]
    queue = np.flatnonzero((nbl[:nroot] > 1) & (nlive[:nroot] > 0))
    return (comp.ravel(), nxt.ravel(), prv.ravel(), head, tail, nbl, nlive, crole, queue, live,
            rkey, rc)


def _array_loop(n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last,
                nblocks0, against, n_against, pairs, use_counts):
    """_three_way_loop_jit on _compound_setup's state and fresh scratch arrays."""
    counters = np.zeros(4, dtype=np.int64)   # steps, edges scanned, splits, pushes
    nblocks = nblocks0
    if 1 < nblocks0 < n:
        comp, nxt, prv, head, tail, nbl, nlive, crole, queue, live, rkey, rc = _compound_setup(
            n, nsr, block_of, first, last, nblocks0, against, n_against, pairs, use_counts)
        # rec: edge position in pred_indices -> its record, or -1
        rec = np.zeros(0, dtype=np.int64)
        if not use_counts:
            counters[1] = len(pred_indices)
            keys, distinct, _ = pairs
            rec = np.where(live, np.cumsum(live) - 1, -1)[np.searchsorted(distinct, keys)]
        # a compound is queued at most once at a time, and only after a
        # step or as a root
        work = np.zeros(2 * n * nsr + 2, dtype=np.int64)
        work[:len(queue)] = queue
        nblocks = _three_way_loop_jit(
            n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last,
            nblocks0, use_counts, n_against * nsr, comp, head, tail, nbl, nlive, crole,
            nxt, prv, work, len(queue), rec, rc, len(rkey),
            np.zeros(n, dtype=np.int64),                                      # counts
            np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),         # newrec, oldrec
            np.zeros(len(rc), dtype=np.int64),                                # free
            np.zeros(n, dtype=np.int32), np.zeros(n, dtype=np.int32),         # touched, tlist
            np.zeros(n + 1, dtype=np.int32), np.zeros(n + 1, dtype=np.int32),  # tb_cnt, tb_start
            np.zeros(n + 1, dtype=np.int32), np.zeros(n, dtype=np.int32),     # tb_fill, affected
            np.zeros(n, dtype=np.int64), counters,                            # sort_keys
        )
    return block_of, int(nblocks), tuple(counters.tolist())


def _cut_list(b, keys, base, blk, el, ps, fst, lst, nblocks):
    """_cut_block over lists; returns the block count."""
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
    if nu:
        lst[b] = fb + nu
    seg = fb + nu
    ii = 0
    while ii < ntb:
        c = keys[ii] // base
        jj = bisect_left(keys, (c + 1) * base, ii)
        end = seg + jj - ii
        if nu or ii:
            cid = nblocks
            nblocks += 1
            for q in range(seg, end):
                blk[el[q]] = cid
        else:
            cid = b
        fst[cid] = seg
        lst[cid] = end
        seg = end
        ii = jj
    return nblocks


def _refine_list_loop(n, nsr, pred_indptr, pred_indices, block_of, elems, pos, first, last,
                      nblocks0, against, n_against, pairs, use_counts):
    """_three_way_loop for CPython, run over Python lists.

    The arrays are read into lists on entry, because CPython indexes a
    list far faster than a numpy array, and only the block ids are
    written back.  Dicts stand in for the kernel's per-step scratch
    arrays (counts, groups by block) and for its records, which are
    keyed x * (n * nsr + 1) + compound, so that a step counts edges per
    touched element instead of moving each edge between records.
    Touched elements are ordered by sorted() on the keys the kernel
    sorts; the keys are unique, so both orders, and hence the block ids,
    agree.
    """
    t = scanned = splits = pushes = 0
    nblocks = nblocks0
    if 1 < nblocks0 < n:
        comp, nxt, prv, head, tail, nbl, nlive, crole, queue, _, rkey, rc = _compound_setup(
            n, nsr, block_of, first, last, nblocks0, against, n_against, pairs, use_counts)
        if not use_counts:
            scanned = len(pred_indices)
        comp, nxt, prv = comp.tolist(), nxt.tolist(), prv.tolist()
        # compounds are numbered in order of creation: the lists grow
        head, tail, nbl, nlive, crole = (
            a[:n_against * nsr].tolist() for a in (head, tail, nbl, nlive, crole))
        recs = dict(zip(rkey.tolist(), rc[:len(rkey)].tolist()))
        ptr = pred_indptr.tolist()
        idx = pred_indices.tolist()
        blk = block_of.tolist()
        el = elems.tolist()
        ps = pos.tolist()
        fst = first.tolist()
        lst = last.tolist()
        kc = n * nsr + 1
        base = n + 1
        base2 = 2 * base
        work = queue.tolist()
        qhead = 0
        while qhead < len(work) and nblocks < n:
            c = work[qhead]
            qhead += 1
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
            else:
                tail[c] = p
            nxt[sl] = prv[sl] = -1
            nbl[c] -= 1
            cb = len(head)
            crole.append(s)
            head.append(bb)
            tail.append(bb)
            nbl.append(1)
            comp[sl] = cb
            t += 1

            # cnt[x] = number of edges x -> (member of bb) along s
            ip = ptr[s]
            cnt = {}
            get = cnt.get
            for y in el[fst[bb]:lst[bb]]:
                for x in idx[ip[y]:ip[y + 1]]:
                    cnt[x] = get(x, 0) + 1
            scanned += sum(cnt.values())

            # group the touched elements of larger blocks by block, keyed
            # class * base + x; without counting, move their counts from
            # the records (x, S) to (x, {bb})
            groups = {}
            fresh = 0
            for x, k in cnt.items():
                b = blk[x]
                if lst[b] - fst[b] == 1:
                    continue
                fresh += 1
                if use_counts:
                    key = k * base + x
                else:
                    xk = x * kc
                    recs[xk + cb] = k
                    old = xk + c
                    left = recs[old] - k
                    if left:
                        recs[old] = left
                        key = base + x
                    else:
                        del recs[old]
                        nlive[c] -= 1
                        key = base2 + x
                group = groups.get(b)
                if group is None:
                    groups[b] = [key]
                else:
                    group.append(key)
            nlive.append(fresh)
            if nbl[c] >= 2 and nlive[c]:
                work.append(c)

            for b, keys in groups.items():
                keys.sort()
                if len(keys) == lst[b] - fst[b] and keys[0] // base == keys[-1] // base:
                    continue
                first_new = nblocks
                nblocks = _cut_list(b, keys, base, blk, el, ps, fst, lst, nblocks)
                splits += 1

                # sub-blocks follow their parent into its compound of every
                # role, at its tail; a compound reaching two blocks is queued
                for s2 in range(nsr):
                    pc = comp[b * nsr + s2]
                    for cid in range(first_new, nblocks):
                        cs = cid * nsr + s2
                        comp[cs] = pc
                        nxt[tail[pc] * nsr + s2] = cid
                        prv[cs] = tail[pc]
                        tail[pc] = cid
                        nbl[pc] += 1
                        if nbl[pc] == 2 and nlive[pc]:
                            work.append(pc)
        pushes = len(work)
        block_of[:] = blk
    return block_of, nblocks, (t, scanned, splits, pushes)


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
