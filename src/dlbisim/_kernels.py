"""Partition refinement inner loop, over Python lists.

_refine_list_loop takes (n, nsr, pred_indptr, pred_indices, block_of,
elems, pos, first, last, nblocks0, against, n_against, pairs,
use_counts), leaves the final block ids in block_of and returns
(block_of, block count, counters), counters being (steps, edges
scanned, splits, queue pushes).  It reads the arrays into lists on
entry and runs over lists and dicts, because CPython indexes a list
several times faster than a numpy array.  This is the only refinement
loop; active_engine names it "numpy".

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
from itertools import repeat

import numpy as np

# There is no compiled engine.  tests/test_acceptance.py and
# perfbench/worker.py read this flag, so it stays, always False.
HAVE_NUMBA = False


def _compound_setup(n, nsr, block_of, first, last, nblocks, against, n_against, pairs,
                    use_counts):
    """The loop's start state, as lists: compounds = blocks of a coarser
    stable partition.

    against[x] is the block of element x in a coarser partition of
    n_against blocks that every block is stable against along every
    splitter role.  Compound s * n_against + C, for splitter role s and
    block C of it, holds the blocks inside C, in id order; when against
    has one block (all 0), compound s is the whole domain along s.
    pairs = (keys, distinct, count) are the (element, compound) pairs
    over the edges, each as the key element * nsr * n_against + compound:
    the key of each edge, the distinct keys in ascending order, and the
    number of edges of each; the setup reads the last two.

    A singleton block never splits.  So, without counting, only elements
    of larger blocks keep records: one per pair, counting its edges.
    nlive[c] is the number of elements of larger blocks that had edges
    into compound c when it was made, less the records (x, c) emptied
    since; a compound with none is never split, because no larger block
    could split against it.

    Returns comp (block * nsr + role -> compound), nxt and prv (each
    compound's blocks as a list linked per block slot), with room for
    every block the loop can create; head, tail, nbl, nlive and crole
    (first and last block, block count, live count and role per
    compound) of the root compounds, which the loop extends as it makes
    compounds; the queue of root compounds to split; and the records,
    x * (n * nsr + 1) + compound -> edge count, empty with counting.
    """
    nroot = nsr * n_against
    # the blocks grouped by the block of against that holds them
    aof = np.empty(nblocks, dtype=np.int64)
    aof[block_of] = against
    order = np.argsort(aof, kind="stable")
    size = np.bincount(aof, minlength=n_against)
    ends = np.cumsum(size)
    link = np.flatnonzero(aof[order[1:]] == aof[order[:-1]])
    nxt = np.full((nblocks, nsr), -1, dtype=np.int64)
    prv = np.full((nblocks, nsr), -1, dtype=np.int64)
    nxt[order[link]] = order[link + 1, None]
    prv[order[link + 1]] = order[link, None]

    def slots(rows):
        # the blocks there are, then -1 for those the loop can make
        out = rows.ravel().tolist()
        out.extend(repeat(-1, (n - nblocks) * nsr))
        return out

    comp, nxt, prv = map(slots, (np.arange(nsr) * n_against + aof[:, None], nxt, prv))
    nbl = np.tile(size, nsr)
    _, distinct, count = pairs
    owner, pcomp = np.divmod(distinct, nroot)
    live = (last[:nblocks] - first[:nblocks] > 1)[block_of][owner]
    nlive = np.bincount(pcomp[live], minlength=nroot)
    recs = {}
    if not use_counts:
        recs = dict(zip((owner[live] * (n * nsr + 1) + pcomp[live]).tolist(),
                        count[live].tolist()))
    queue = np.flatnonzero((nbl > 1) & (nlive > 0)).tolist()
    return (comp, nxt, prv, np.tile(order[ends - size], nsr).tolist(),
            np.tile(order[ends - 1], nsr).tolist(), nbl.tolist(), nlive.tolist(),
            (np.arange(nroot) // n_against).tolist(), queue, recs)


def _cut_list(b, keys, base, blk, el, ps, fst, lst, nblocks):
    """Split block b by its touched elements, keys = class * base + x in
    ascending order: they move to the back of b's segment in key order,
    one sub-block per class; the untouched rest is class 0 and keeps b.
    Returns the block count."""
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
    """The refinement loop on _compound_setup's state (see the module).

    Only the block ids are written back to the arrays.  A step counts the
    edges into its splitter per touched element in a dict, and groups
    the touched elements by block in another; without counting, the
    records are a dict keyed x * (n * nsr + 1) + compound, so that a step
    moves each touched element's count, not each edge, between records.
    Each group is sorted by its unique keys class * (n + 1) + x, so the
    block ids depend only on the input.
    """
    t = scanned = splits = pushes = 0
    nblocks = nblocks0
    if 1 < nblocks0 < n:
        comp, nxt, prv, head, tail, nbl, nlive, crole, work, recs = _compound_setup(
            n, nsr, block_of, first, last, nblocks0, against, n_against, pairs, use_counts)
        if not use_counts:
            scanned = len(pred_indices)
        # per role its in-edge offsets from 0, so that a role with few
        # edges holds small ints, and its part of pred_indices
        ptr = [(row - row[0]).tolist() for row in pred_indptr]
        idx = [pred_indices[lo:hi].tolist() for lo, hi in pred_indptr[:, [0, -1]].tolist()]
        blk = block_of.tolist()
        el = elems.tolist()
        ps = pos.tolist()
        fst = first.tolist()
        lst = last.tolist()
        kc = n * nsr + 1
        base = n + 1
        base2 = 2 * base
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
            ix = idx[s]
            cnt = {}
            get = cnt.get
            for y in el[fst[bb]:lst[bb]]:
                for x in ix[ip[y]:ip[y + 1]]:
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
    """The name of the refinement loop: "numpy", the name the benchmark
    records and `dlbisim bench --engine` accepts, for the list loop."""
    return "numpy"
