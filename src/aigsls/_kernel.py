"""The C kernel: AIGER parsing, circuit topology, structural profile and the
search steps.

A circuit is its CSR ``array('i')`` buffers (``CSR``: fanin, distinct child
gates, fanout with its signs, topological order and positions) on both
paths.  At load time ``aigsls_parse_binary`` or ``aigsls_parse_ascii``
reads a file's body into the fanin buffers plus the output literals, as
``aiger``'s Python readers do, and ``circuit.topology`` builds the rest with
``aigsls_topology``, from a reader's buffers or from ``build_circuit``'s
``rows`` of a definition list.  ``aigsls_profile`` fills every column of ``StructuralProfile`` from
them in two passes, the twins of ``metrics``'s ``_forward`` and
``_backward``, and names each pass whose columns Python must compute again:
where costs outgrow int64, or where the interpreter's float ``sum`` would
differ from the plain sum in C.

``Assignment`` keeps its state in flat buffers (``values`` a bytearray, the
unjustified list, its positions, each gate's count of child literals at 0
and the propagation stamps ``array('i')``).  The C code below reads and
writes those buffers and the circuit's CSR in place.  An assignment built
while ``lib`` is loaded keeps a ``State`` on them: ``aigsls_scan`` fills
them, and ``aigsls_run`` flips, propagates and rolls back in C, only inside
its loop.  Every other flip and propagation runs in Python
(``Assignment._flip`` and ``_propagate``), on either kind of assignment.
Both flip the same gates in the same order, and a flip reads no fanin
row: it moves each parent's count by the parent's sign in the flipped
gate's fanout row, then decides from the counts whether the gate and its
parents are unjustified.  ``aigsls_scan`` builds the counts with the
unjustified list, and only ``aigsls_evaluate`` and ``aigsls_first_unjust``
apply ``unjust``, the definition, literal by literal.  Forward propagation
keeps its pending gates in a bitmap over topological positions in C,
where Python keeps a ``heapq``, and both pop them in rising position.

``aigsls_run`` is ``SearchEngine.run``'s loop, step for step: selection,
the moves read from the gate's CSR rows as ``search._moves`` reads them, the
greedy trials, the move and every ``SearchStats`` counter.  Under a measure
heuristic, selection picks the least int32 score of
``StructuralProfile.scores`` among the unjustified gates, with the ties
kept in ``ulist`` order.  It reads the scores from ``usc``, a buffer of
``Search`` holding ``ulist[i]``'s score at ``usc[i]``: ``aigsls_run``
gathers it from ``ulist`` on entry, the C flips keep it in step with
``ulist`` until the call returns, and it is stale outside the call.  A
closure size not walked yet is walked on first need, as ``aigsls_closures``
does, in ``ulist`` order.  Its random
draws come from a copy of CPython's MT19937, which starts from and ends in
the engine's ``random.Random`` state, so both loops draw the same stream
and follow the same trajectory.  ``_bind`` checks the copy against
``random.Random`` on a fixed draw sequence and leaves ``run`` None when
they differ; ``SearchEngine`` then runs its Python loop over the Python
steps, which work on the same buffers.  No other entry point flips,
propagates or rolls back in C.
``verify_satisfying`` scans the whole circuit with ``aigsls_first_unjust``.

The library is compiled with ``cc`` when this module is first imported and
cached under ``$XDG_CACHE_HOME/aigsls`` (default ``~/.cache/aigsls``), keyed
by the source, the flags and the machine.  ``lib`` is None when no compiler
works or the library cannot be loaded; every operation then runs its
pure-Python twin, which is also the reference the tests compare against.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import random
import shutil
import stat
import subprocess
import tempfile
import time
import types
from array import array
from itertools import accumulate, chain
from operator import eq
from typing import NamedTuple, Optional

SOURCE = r"""
#include <limits.h>
#include <string.h>

/* A search's settings; mirrors Search in _kernel.py.  A gate scores lo[g]
   while at 0 and hi[g] while at 1, negated when neg; lo is NULL under
   "rand".  A walk makes lo the closure-size cache of the CSR (off, adj): a
   candidate's negative entry is first filled by reach.  usc has room for
   the score of every AND gate: usc[i] is the score of ulist[i], kept by
   refresh, but only inside aigsls_run and under a measure heuristic. */
typedef struct {
    int *lo;
    const int *hi;
    int neg;
    const int *off, *adj;
    int *walk;
    double wp;
    int *usc;
} Search;

/* CSR circuit plus one assignment's buffers; mirrors State in _kernel.py */
typedef struct {
    int n;
    const int *fin_off, *fin, *fout_off, *fout, *order, *tpos, *kid_off, *kid, *sign;
    unsigned char *val;
    const unsigned char *pin;
    int *ulist, *upos, *nf, *meta, *stamp, *scratch, *undo, *ties;
    const Search *sel;
    /* sign parallels fout: the entry of parent p in c's row counts p's
       literals that read c plainly minus those that read it complemented.
       nf[g]: the number of g's child literals that read 0, -1 for an input.
       meta: unjust count, propagation generation; scratch: n ints of mark
       scratch, then the pending bitmap of propagate, ceil(n / 32) words;
       undo: the gates a trial's propagation flipped, n ints; ties: a
       selection's ties, then a step's moves, n ints;
       sel: the search whose usc refresh keeps, set only while aigsls_run
       runs a measure heuristic, else NULL */
} State;

/* 1 iff g is an AND gate whose value differs from the AND of its child
   literals, read from the literals themselves: the definition, which
   aigsls_evaluate and aigsls_first_unjust apply */
static int unjust(const int *fin_off, const int *fin, const unsigned char *val, int g)
{
    int i = fin_off[g], end = fin_off[g + 1], v = 1;
    if (i == end)
        return 0;
    for (; i < end; i++)
        if (!(val[fin[i] >> 1] ^ (fin[i] & 1))) {
            v = 0;
            break;
        }
    return val[g] != v;
}

/* g's score under p: hi[g] while g is at 1, else lo[g]; selection takes
   the least, or the greatest when neg */
static int score(const Search *p, const unsigned char *val, int g)
{
    return val[g] ? p->hi[g] : p->lo[g];
}

/* unjust(g) read from nf[g]: g is at 1 with a child literal at 0, or at 0
   with none, which an input, at the sentinel -1, never is */
static inline int counted_unjust(const State *s, int g)
{
    return s->val[g] ? s->nf[g] > 0 : s->nf[g] == 0;
}

/* moves g into or out of ulist after its value or a child's changed, with
   nf[g] up to date.  A removal fills the hole with the last entry, and so
   does usc while sel is set.  While a gate stays in ulist its score does
   not change: flipping an unjustified AND gate justifies it, and refreshing
   a parent leaves the parent's value alone.  So usc changes only where
   ulist gains or loses a gate. */
static void refresh(State *s, int g)
{
    int pos = s->upos[g];
    if (!counted_unjust(s, g)) {
        if (pos >= 0) {
            int last = s->ulist[--s->meta[0]];
            s->ulist[pos] = last;
            s->upos[last] = pos;
            s->upos[g] = -1;
            if (s->sel)
                s->sel->usc[pos] = s->sel->usc[s->meta[0]];
        }
    } else if (pos < 0) {
        if (s->sel)
            s->sel->usc[s->meta[0]] = score(s->sel, s->val, g);
        s->upos[g] = s->meta[0];
        s->ulist[s->meta[0]++] = g;
    }
}

/* flips g, then refreshes g and each parent in fout order; a parent's
   count of literals at 0 moves by its sign entry, up when g drops to 0 */
static void flip(State *s, int g)
{
    int d = s->val[g] ? 1 : -1;
    s->val[g] ^= 1;
    refresh(s, g);
    for (int i = s->fout_off[g]; i < s->fout_off[g + 1]; i++) {
        int p = s->fout[i];
        s->nf[p] += d * s->sign[i];
        refresh(s, p);
    }
}

/* forward propagation from the k flipped origins, the twin of
   Assignment._propagate; returns the number of gates it flipped and writes
   them to log when log is not NULL.  The pending gates are bits over
   topological positions, past the mark scratch in s->scratch.  The origins
   are all set before the first pop, and every later push is a parent of the
   gate just popped, so it lies later in the order: scanning forward from
   the first pending word pops the gates in rising position, as Python's
   heapq does, and leaves every bit clear again. */
static int propagate(State *s, const int *origins, int k, int *log)
{
    int *stamp = s->stamp, flipped = 0, pending = 0, w = INT_MAX;
    unsigned *bits = (unsigned *)(s->scratch + s->n);
    if (s->meta[1] > INT_MAX - 2) {
        memset(stamp, 0, sizeof(int) * (size_t)s->n);
        s->meta[1] = 0;
    }
    int seen = s->meta[1] + 1, origin = seen + 1;
    s->meta[1] = origin;
    for (int i = 0; i < k; i++)
        if (stamp[origins[i]] != origin) {
            int t = s->tpos[origins[i]];
            stamp[origins[i]] = origin;
            bits[t >> 5] |= 1U << (t & 31);
            pending++;
            if (t >> 5 < w)
                w = t >> 5;
        }
    for (; pending > 0; pending--) {
        while (!bits[w])
            w++;
        int g = s->order[32 * w + __builtin_ctz(bits[w])];
        bits[w] &= bits[w] - 1;
        if (stamp[g] != origin) {
            if (s->upos[g] < 0 || s->pin[g])
                continue;
            flip(s, g);
            if (log)
                log[flipped] = g;
            flipped++;
        }
        for (int i = s->fout_off[g]; i < s->fout_off[g + 1]; i++) {
            int p = s->fout[i];
            if (stamp[p] < seen) {
                int t = s->tpos[p];
                stamp[p] = seen;
                bits[t >> 5] |= 1U << (t & 31);
                pending++;
            }
        }
    }
    return flipped;
}

static void rollback(State *s, const int *log, int k)
{
    while (k > 0)
        flip(s, log[--k]);
}

/* size of g's transitive closure over the CSR (off, adj) of n gates, g
   excluded; walk holds the walk generation, n stamps and the stack */
static int reach(const int *off, const int *adj, int n, int *walk, int g)
{
    int *stamp = walk + 1, *stack = stamp + n, top = 0, count = 0;
    if (walk[0] == INT_MAX) {
        memset(stamp, 0, sizeof(int) * (size_t)n);
        walk[0] = 0;
    }
    int gen = ++walk[0];
    stamp[g] = gen;
    stack[top++] = g;
    while (top > 0) {
        int x = stack[--top];
        for (int i = off[x]; i < off[x + 1]; i++) {
            int y = adj[i];
            if (stamp[y] != gen) {
                stamp[y] = gen;
                stack[top++] = y;
                count++;
            }
        }
    }
    return count;
}

/* the least of the count ints at u, or the greatest when neg; eight lanes
   side by side, which the compiler turns into vector code once inlined
   with neg constant */
static inline int extreme(const int *u, int count, int neg)
{
    int lane[8], best = u[0], i = 0;
    for (int j = 0; j < 8; j++)
        lane[j] = best;
    for (; i + 8 <= count; i += 8)
        for (int j = 0; j < 8; j++)
            lane[j] = (neg ? u[i + j] > lane[j] : u[i + j] < lane[j]) ? u[i + j] : lane[j];
    for (int j = 0; j < 8; j++)
        best = (neg ? lane[j] > best : lane[j] < best) ? lane[j] : best;
    for (; i < count; i++)
        best = (neg ? u[i] > best : u[i] < best) ? u[i] : best;
    return best;
}

/* Gate selection: writes the unjustified gates of least score (greatest
   when neg) to ties, in ulist order, and returns how many there are.  The
   scores are usc's, in ulist order; under a walk, each negative one, a
   closure size not walked yet, is first filled by reach, in ulist order. */
static int select_ties(State *s, const Search *p)
{
    int count = s->meta[0], k = 0, *usc = p->usc;
    if (p->walk)
        for (int i = 0; i < count; i++)
            if (usc[i] < 0) {
                int g = s->ulist[i];
                usc[i] = p->lo[g] = reach(p->off, p->adj, s->n, p->walk, g);
            }
    int best = p->neg ? extreme(usc, count, 1) : extreme(usc, count, 0);
    /* without a branch: many gates may tie, in no pattern */
    for (int i = 0; i < count; i++) {
        s->ties[k] = s->ulist[i];
        k += usc[i] == best;
    }
    return k;
}

/* unjust count after flipping the k gates and propagating, then undone */
static int trial(State *s, const int *flips, int k)
{
    for (int i = 0; i < k; i++)
        flip(s, flips[i]);
    int n = propagate(s, flips, k, s->undo);
    int count = s->meta[0];
    rollback(s, s->undo, n);
    rollback(s, flips, k);
    return count;
}

/* flip the k gates and propagate; returns the number of gates flipped */
static int move(State *s, const int *flips, int k)
{
    for (int i = 0; i < k; i++)
        flip(s, flips[i]);
    return k + propagate(s, flips, k, NULL);
}

/* CPython's MT19937 (Modules/_randommodule.c): mt[0..623] are the state
   words and mt[624] the index, as random.Random.getstate() lays them out. */
static unsigned genrand(unsigned *mt)
{
    unsigned y;
    if (mt[624] >= 624) {
        for (int k = 0; k < 624; k++) {
            y = (mt[k] & 0x80000000U) | (mt[(k + 1) % 624] & 0x7fffffffU);
            mt[k] = mt[(k + 397) % 624] ^ (y >> 1) ^ (y & 1 ? 0x9908b0dfU : 0);
        }
        mt[624] = 0;
    }
    y = mt[mt[624]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* random.random(): genrand_res53 */
static double random53(unsigned *mt)
{
    unsigned a = genrand(mt) >> 5, b = genrand(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.randrange(n) for 0 < n < 2^31: getrandbits(n.bit_length()) until
   it is below n */
static int randbelow(unsigned *mt, int n)
{
    int shift = __builtin_clz((unsigned)n);
    unsigned r;
    do
        r = genrand(mt) >> shift;
    while (r >= (unsigned)n);
    return (int)r;
}

/* search._moves of the unjustified gate g, written to mv; returns how many.
   At 0 each distinct child that is not pinned is a move of its own, and
   *width is 1.  At 1 the one move flips the *width distinct children whose
   literal is 0, in first-occurrence order; there is none when one of them
   is pinned or g reads both polarities of one child.  mark is scratch
   indexed by gate. */
static int moves(State *s, int g, int *mv, int *mark, int *width)
{
    const int *kid_off = s->kid_off, *kid = s->kid;
    int k = 0;
    *width = 1;
    if (!s->val[g]) {
        for (int i = kid_off[g]; i < kid_off[g + 1]; i++)
            if (!s->pin[kid[i]])
                mv[k++] = kid[i];
        return k;
    }
    /* mark[c]: the complement bit g reads c through, -1 before the first */
    for (int i = kid_off[g]; i < kid_off[g + 1]; i++)
        mark[kid[i]] = -1;
    for (int i = s->fin_off[g]; i < s->fin_off[g + 1]; i++) {
        int c = s->fin[i] >> 1, bit = s->fin[i] & 1;
        if (mark[c] >= 0) {
            if (mark[c] != bit)
                return 0;
        } else {
            mark[c] = bit;
            if (s->val[c] == bit) {
                if (s->pin[c])
                    return 0;
                mv[k++] = c;
            }
        }
    }
    *width = k;
    return 1;
}

/* SearchStats' fields, in order */
enum { WALK, GREEDY, FORCED, BURNED, TRIALS, FLIPS, MIN_UNJUST };

/* SearchEngine.run's loop, step for step, drawing from mt as the engine's
   random.Random would: up to budget steps, counted into stats; returns 1
   once the circuit is satisfied, else 0.  The moves go to ties, after the
   selection is done with it, and the first n ints of scratch are moves' mark. */
static int search(State *s, unsigned *mt, const Search *p, long long *stats, long long budget)
{
    int *mv = s->ties;
    for (; budget > 0; budget--) {
        int count = s->meta[0], g, width, pick = 0;
        if (count < stats[MIN_UNJUST])
            stats[MIN_UNJUST] = count;
        if (!count)
            return 1;
        if (count == 1)
            g = s->ulist[0];
        else if (!p->lo)
            g = s->ulist[randbelow(mt, count)];
        else {
            int k = select_ties(s, p);
            g = s->ties[k == 1 ? 0 : randbelow(mt, k)];
        }
        int k = moves(s, g, mv, s->scratch, &width);
        if (!k) {
            stats[BURNED]++;
            continue;
        }
        if (k == 1)
            stats[FORCED]++;
        else if (random53(mt) < p->wp) {
            stats[WALK]++;
            pick = randbelow(mt, k);
        } else {
            /* several moves only at 0, one gate each: the least count wins,
               ties kept in mv in first-seen order */
            int best = INT_MAX, ties = 0;
            stats[GREEDY]++;
            stats[TRIALS] += k;
            for (int i = 0; i < k; i++) {
                int c = trial(s, &mv[i], 1);
                if (c < best) {
                    best = c;
                    ties = 0;
                }
                if (c == best)
                    mv[ties++] = mv[i];
            }
            pick = ties == 1 ? 0 : randbelow(mt, ties);
        }
        stats[FLIPS] += move(s, &mv[pick], width);
    }
    return 0;
}

/* search for budget steps: under a measure heuristic, with usc gathered
   from ulist first and kept up to date through s->sel until the return */
int aigsls_run(State *s, unsigned *mt, const Search *p, long long *stats, long long budget)
{
    if (p->lo) {
        for (int i = 0; i < s->meta[0]; i++)
            p->usc[i] = score(p, s->val, s->ulist[i]);
        s->sel = p;
    }
    int found = search(s, mt, p, stats, budget);
    s->sel = NULL;
    return found;
}

/* k draws from mt into out: random() where n[i] is 0, else randrange(n[i]);
   the kernel's side of the load-time check of the copied generator */
void aigsls_draws(unsigned *mt, const int *n, int k, double *out)
{
    for (int i = 0; i < k; i++)
        out[i] = n[i] ? randbelow(mt, n[i]) : random53(mt);
}

/* fills each negative size[g] of the k gates by reach; returns -1, and
   changes nothing, when a gate is out of range */
int aigsls_closures(int n, const int *off, const int *adj, int *walk, int *size,
                    const int *gates, int k)
{
    for (int i = 0; i < k; i++)
        if (gates[i] < 0 || gates[i] >= n)
            return -1;
    for (int i = 0; i < k; i++)
        if (size[gates[i]] < 0)
            size[gates[i]] = reach(off, adj, n, walk, gates[i]);
    return 0;
}

/* sets each AND gate not set in pin, in topological order, to the AND of
   its child literals: _evaluate_ands */
void aigsls_evaluate(int n, const int *order, const int *fin_off, const int *fin,
                     const unsigned char *pin, unsigned char *val)
{
    for (int i = 0; i < n; i++)
        if (!pin[order[i]] && unjust(fin_off, fin, val, order[i]))
            val[order[i]] ^= 1;
}

/* fill nf and an empty unjustified list, in index order */
void aigsls_scan(State *s)
{
    for (int g = 0; g < s->n; g++) {
        int k = s->fin_off[g] < s->fin_off[g + 1] ? 0 : -1;
        for (int i = s->fin_off[g]; i < s->fin_off[g + 1]; i++)
            k += !(s->val[s->fin[i] >> 1] ^ (s->fin[i] & 1));
        s->nf[g] = k;
        if (counted_unjust(s, g)) {
            s->upos[g] = s->meta[0];
            s->ulist[s->meta[0]++] = g;
        }
    }
}

/* verify_satisfying's full scan: the first gate, in index order, whose value
   differs from the AND of its child literals, or -1 */
int aigsls_first_unjust(int n, const int *fin_off, const int *fin, const unsigned char *val)
{
    for (int g = 0; g < n; g++)
        if (unjust(fin_off, fin, val, g))
            return g;
    return -1;
}

/* The AIGER parsers write the packed child literals of gates 0..m as CSR
   rows (fin_off, fin), and the output literals, as written, to out: an
   input's row is empty, and AIGER's constant literals 0 and 1 swap
   (lit ^ (lit < 2)) in the rows because gate 0 is an input pinned to 1.
   They accept only a strict grammar and return -1, declining, on anything
   else, valid or not; the pure-Python parser then reads the file and gives
   every diagnostic.  The caller keeps m at most 2^30 - 1, so every literal
   fits an int. */

/* the decimal field [0-9]+ at data[*pos], ended by the byte end, which is
   skipped too; -1 when it is not there or exceeds limit */
static long long field(const unsigned char *data, long long len, long long *pos, int end,
                       long long limit)
{
    long long p = *pos, v = 0;
    if (p >= len || data[p] < '0' || data[p] > '9')
        return -1;
    for (; p < len && data[p] >= '0' && data[p] <= '9'; p++) {
        v = 10 * v + (data[p] - '0');
        if (v > limit)
            return -1;
    }
    if (p >= len || data[p] != end)
        return -1;
    *pos = p + 1;
    return v;
}

/* binary AIGER's o output lines, each [0-9]+ ended by '\n', then its a AND
   gates as delta pairs, from data[pos]; gates 1..i are the inputs and
   m = i + a.  fin_off needs i + a + 2 entries and fin 2a.  Declines an
   output literal past 2m + 1, a delta code past 32 bits or past the end of
   data, and operands out of order. */
int aigsls_parse_binary(const unsigned char *data, long long len, long long pos, int i, int o,
                        int a, int *out, int *fin_off, int *fin)
{
    long long top = 2LL * ((long long)i + a) + 1;
    if (pos < 0)
        return -1;
    for (int k = 0; k < o; k++) {
        long long lit = field(data, len, &pos, '\n', top);
        if (lit < 0)
            return -1;
        out[k] = (int)lit;
    }
    for (int g = 0; g <= i; g++)
        fin_off[g] = 0;
    for (int k = 0; k < a; k++) {
        long long lhs = 2LL * ((long long)i + k + 1), lit = lhs;
        for (int j = 0; j < 2; j++) {
            unsigned long long delta = 0;
            for (int shift = 0;; shift += 7) {
                if (pos >= len || shift > 28)
                    return -1;
                unsigned char byte = data[pos++];
                delta |= (unsigned long long)(byte & 0x7f) << shift;
                if (!(byte & 0x80))
                    break;
            }
            if (delta > 0xffffffffULL)
                return -1;
            lit -= (long long)delta;
            if (lit < 0 || lit >= lhs)
                return -1;
            fin[2 * k + j] = (int)(lit ^ (lit < 2));
        }
        fin_off[i + k + 1] = 2 * k;
    }
    fin_off[i + a + 1] = 2 * a;
    return 0;
}

/* ASCII AIGER's input, output and AND sections from data[pos]: i lines of
   one field, o lines of one field and a lines of three fields, each field
   [0-9]+, fields separated by one space, every line ended by '\n'; what
   follows the AND section is ignored.  fin_off needs
   m + 2 entries and fin 2m + 2.  Declines a literal out of range, a
   variable defined twice or never, and a line that breaks the grammar.
   Returns the number of child literals. */
int aigsls_parse_ascii(const unsigned char *data, long long len, long long pos, int m, int i,
                       int o, int a, int *out, int *fin_off, int *fin)
{
    long long top = 2LL * m + 1;
    if (pos < 0)
        return -1;
    /* fin_off[v] is 0 while v is undefined, 1 for an input, 2 for an AND
       whose literals wait in fin[2v], fin[2v + 1] */
    fin_off[0] = 1;
    for (int v = 1; v <= m; v++)
        fin_off[v] = 0;
    for (int k = 0; k < i; k++) {
        long long lit = field(data, len, &pos, '\n', top);
        if (lit < 2 || lit & 1 || fin_off[lit >> 1])
            return -1;
        fin_off[lit >> 1] = 1;
    }
    for (int k = 0; k < o; k++) {
        long long lit = field(data, len, &pos, '\n', top);
        if (lit < 0)
            return -1;
        out[k] = (int)lit;
    }
    for (int k = 0; k < a; k++) {
        long long lhs = field(data, len, &pos, ' ', top);
        long long r0 = field(data, len, &pos, ' ', top);
        long long r1 = field(data, len, &pos, '\n', top);
        if (lhs < 2 || lhs & 1 || r0 < 0 || r1 < 0 || fin_off[lhs >> 1])
            return -1;
        int v = (int)(lhs >> 1);
        fin_off[v] = 2;
        fin[2 * v] = (int)(r0 ^ (r0 < 2));
        fin[2 * v + 1] = (int)(r1 ^ (r1 < 2));
    }
    /* gather the rows in place: row v moves down to 2 * (ANDs before v) */
    int edges = 0;
    for (int v = 0; v <= m; v++) {
        int kind = fin_off[v];
        if (!kind)
            return -1;
        fin_off[v] = edges;
        if (kind == 2) {
            fin[edges] = fin[2 * v];
            fin[edges + 1] = fin[2 * v + 1];
            edges += 2;
        }
    }
    fin_off[m + 1] = edges;
    return edges;
}

/* circuit.topology: the CSR built from the packed child literals
   (fin_off, fin) of n gates: each gate's distinct child gates in first-occurrence order
   (kid_off, kid), its parents in index order (fout_off, fout) with the
   signs beside them (sign: the parent's literals that read the gate
   plainly, less those that read it complemented), and Kahn's topological
   order, seeded in index order, with each gate's position in it.  kid,
   fout and sign need room for fin_off[n] entries.  Returns the number of
   distinct child edges, or -1 when a literal names no gate or some gates
   lie on a cycle. */
int aigsls_topology(int n, const int *fin_off, const int *fin, int *kid_off, int *kid,
                    int *fout_off, int *fout, int *sign, int *order, int *tpos)
{
    int edges = 0, tail = 0;
    /* tpos[c] == g + 1 marks c as a child gate of g already seen */
    for (int g = 0; g < n; g++)
        tpos[g] = 0;
    for (int g = 0; g < n; g++) {
        kid_off[g] = edges;
        for (int i = fin_off[g]; i < fin_off[g + 1]; i++) {
            if (fin[i] < 0 || fin[i] >> 1 >= n)
                return -1;
            int c = fin[i] >> 1;
            if (tpos[c] != g + 1) {
                tpos[c] = g + 1;
                kid[edges++] = c;
            }
        }
    }
    kid_off[n] = edges;
    /* fanout by counting sort; tpos[c] is the next free slot of c's row */
    for (int g = 0; g <= n; g++)
        fout_off[g] = 0;
    for (int i = 0; i < edges; i++)
        fout_off[kid[i] + 1]++;
    for (int g = 0; g < n; g++) {
        fout_off[g + 1] += fout_off[g];
        tpos[g] = fout_off[g];
    }
    for (int g = 0; g < n; g++) {
        for (int i = kid_off[g]; i < kid_off[g + 1]; i++) {
            sign[tpos[kid[i]]] = 0;
            fout[tpos[kid[i]]++] = g;
        }
        /* g is the last parent placed in each child's row, at tpos[c] - 1 */
        for (int i = fin_off[g]; i < fin_off[g + 1]; i++)
            sign[tpos[fin[i] >> 1] - 1] += fin[i] & 1 ? -1 : 1;
    }
    /* Kahn's algorithm, order doubling as its queue; tpos[g] counts the
       children of g not yet placed */
    for (int g = 0; g < n; g++) {
        tpos[g] = kid_off[g + 1] - kid_off[g];
        if (tpos[g] == 0)
            order[tail++] = g;
    }
    for (int head = 0; head < tail; head++) {
        int g = order[head];
        for (int i = fout_off[g]; i < fout_off[g + 1]; i++)
            if (--tpos[fout[i]] == 0)
                order[tail++] = fout[i];
    }
    if (tail != n)
        return -1;
    for (int i = 0; i < n; i++)
        tpos[order[i]] = i;
    return edges;
}

/* aigsls_profile's flags: the passes whose columns Python computes again */
#define FORWARD 1
#define BACKWARD 2

/* a literal's cost of driving it to 1: its gate's cc1, or cc0 through an
   inverter */
static long long to_one(const long long *cc0, const long long *cc1, int lit)
{
    return lit & 1 ? cc0[lit >> 1] : cc1[lit >> 1];
}

/* Every column of StructuralProfile in two passes over the topological
   order, the same operations in the same order as their pure-Python twins
   metrics._forward and metrics._backward, so integers and floats come out
   identical.  Children first: level, llevel, alevel (averaging child
   alevel, or child level when level_sum), cc0, cc1.  Parents first: depth,
   fanout size, co and flow (split by the parent's distinct children, or by
   its fanout when fanout_split).  Returns the passes whose columns differ
   from the twin's: FORWARD when cc0/cc1 pass int64, or when some gate has
   three or more distinct children and alevel averages alevel with a
   compensated sum, which the left-to-right sum here matches only for two
   terms; BACKWARD when co passes int64.  After a cc overflow the backward
   pass is not run and both flags are set. */
int aigsls_profile(int n, const int *order, const int *fin_off, const int *fin,
                   const int *fout_off, const int *fout, const int *kid_off, const int *kid,
                   int level_sum, int fanout_split, int compensated,
                   int *depth, int *level, int *llevel, double *alevel, int *fo,
                   long long *cc0, long long *cc1, long long *co, double *flow)
{
    int overflow = 0, wide = 0;
    for (int i = 0; i < n; i++) {
        int g = order[i], a = kid_off[g], b = kid_off[g + 1];
        if (a == b) {
            level[g] = llevel[g] = 0;
            alevel[g] = 0.0;
            cc0[g] = cc1[g] = 1;
            continue;
        }
        if (b - a >= 3)
            wide = 1;
        int hi = level[kid[a]], lo = llevel[kid[a]];
        long long levels = 0;
        double sum = 0.0;
        for (int j = a; j < b; j++) {
            int c = kid[j];
            if (level[c] > hi)
                hi = level[c];
            if (llevel[c] < lo)
                lo = llevel[c];
            levels += level[c];
            sum += alevel[c];
        }
        level[g] = 1 + hi;
        llevel[g] = 1 + lo;
        alevel[g] = 1.0 + (level_sum ? (double)levels : sum) / (b - a);
        long long least = LLONG_MAX, total = 0;
        for (int j = fin_off[g]; j < fin_off[g + 1]; j++) {
            int p = fin[j];
            long long zero = p & 1 ? cc1[p >> 1] : cc0[p >> 1];
            if (zero < least)
                least = zero;
            overflow |= __builtin_add_overflow(total, to_one(cc0, cc1, p), &total);
        }
        overflow |= __builtin_add_overflow(least, 1, &cc0[g]);
        overflow |= __builtin_add_overflow(total, 1, &cc1[g]);
    }
    if (overflow)
        return FORWARD | BACKWARD;
    for (int i = n - 1; i >= 0; i--) {
        int g = order[i], a = fout_off[g], b = fout_off[g + 1];
        fo[g] = b - a;
        if (a == b) {
            depth[g] = 0;
            co[g] = 0;
            flow[g] = 1.0;
            continue;
        }
        int deepest = 0;
        long long best = LLONG_MAX;
        double total = 0.0;
        for (int j = a; j < b; j++) {
            int p = fout[j];
            if (depth[p] > deepest)
                deepest = depth[p];
            /* observe g through p: p's co plus driving every sibling edge to 1 */
            long long cost = co[p];
            for (int k = fin_off[p]; k < fin_off[p + 1]; k++)
                if (fin[k] >> 1 != g)
                    overflow |= __builtin_add_overflow(cost, to_one(cc0, cc1, fin[k]), &cost);
            if (cost < best)
                best = cost;
            int split = fanout_split ? fout_off[p + 1] - fout_off[p] : kid_off[p + 1] - kid_off[p];
            total += flow[p] / (split ? split : 1);
        }
        depth[g] = 1 + deepest;
        overflow |= __builtin_add_overflow(best, 1, &co[g]);
        flow[g] = total;
    }
    return (wide && compensated && !level_sum ? FORWARD : 0) | (overflow ? BACKWARD : 0);
}
"""

FLAGS = ("-O2", "-shared", "-fPIC")

_P, _I, _L = ctypes.c_void_p, ctypes.c_int, ctypes.c_longlong
_SIGNATURES = {
    "evaluate": (None, [_I] + [_P] * 5),
    "scan": (None, [_P]),
    "run": (_I, [_P, _P, _P, _P, _L]),
    "draws": (None, [_P, _P, _I, _P]),
    "closures": (_I, [_I] + [_P] * 5 + [_I]),
    "topology": (_I, [_I] + [_P] * 9),
    "profile": (_I, [_I] + [_P] * 7 + [_I] * 3 + [_P] * 9),
    "first_unjust": (_I, [_I, _P, _P, _P]),
    "parse_binary": (_I, [ctypes.c_char_p, _L, _L, _I, _I, _I, _P, _P, _P]),
    "parse_ascii": (_I, [ctypes.c_char_p, _L, _L, _I, _I, _I, _I, _P, _P, _P]),
}

#: the most AIGER variables the parsers take: 2 * MAX_VAR + 1 fits an int
MAX_VAR = 2**30 - 1

#: ``aigsls_profile``'s flags: the passes whose columns Python computes again
FORWARD, BACKWARD = 1, 2

_BUFFER_FIELDS = ("val", "pin", "ulist", "upos", "nf", "meta", "stamp", "scratch", "undo",
                  "ties")


class CSR(NamedTuple):
    """A circuit's topology as flat ``array('i')`` buffers.

    Row g of a CSR pair (offsets, entries) is ``entries[offsets[g]:offsets[g + 1]]``:
    the packed child literals of g (``fin``), its parents (``fout``) and its
    distinct child gates (``kid``).  ``order`` is the topological order and
    ``tpos[g]`` is g's position in it.  ``sign`` parallels ``fout``: beside
    parent p in c's row, the number of p's literals that read c plainly less
    the number that read it complemented, so 2 for AND(c, c) and 0 for
    AND(c, !c).  A flip of c moves p's count of literals at 0 by it.
    """

    fin_off: array
    fin: array
    fout_off: array
    fout: array
    order: array
    tpos: array
    kid_off: array
    kid: array
    sign: array


class _StateStruct(ctypes.Structure):
    _fields_ = [("n", _I)] + [(name, _P) for name in CSR._fields + _BUFFER_FIELDS + ("sel",)]


class _SearchStruct(ctypes.Structure):
    _fields_ = [("lo", _P), ("hi", _P), ("neg", _I), ("off", _P), ("adj", _P), ("walk", _P),
                ("wp", ctypes.c_double), ("usc", _P)]


def _cache_dir() -> str:
    """The per-user cache directory; OSError unless only its owner can write it."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        raise OSError(f"cache base {base!r} is not an absolute path")
    path = os.path.join(base, "aigsls")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.lstat(path)
    if (not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & 0o022):
        raise OSError(f"{path} is not a directory only its owner can write")
    return path


def _library_path() -> str:
    key = hashlib.sha256("\0".join(
        (SOURCE, *FLAGS, platform.system(), platform.machine())).encode()).hexdigest()
    return os.path.join(_cache_dir(), f"kernel-{key[:32]}.so")


def _compile(path: str):
    """Build the library into a temporary file, then move it to ``path``."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler found")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".so")
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp], input=SOURCE.encode(),
                       capture_output=True, check=True, timeout=300)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


#: how long a cached library of another source is kept after a build: a
#: younger one may belong to another checkout still in use
STALE_S = 7 * 24 * 3600


def _prune(path: str):
    """Remove the other cached libraries beside ``path`` not modified for
    ``STALE_S``, ignoring errors; each earlier source left one behind."""
    cutoff = time.time() - STALE_S
    for other in glob.glob(os.path.join(os.path.dirname(path), "kernel-*.so")):
        try:
            if other != path and os.lstat(other).st_mtime < cutoff:
                os.remove(other)
        except OSError:
            pass


#: the seed of the load-time check of the kernel's copy of random.Random
_GUARD_SEED = 20110


def _reference_draws(rng: random.Random, ns):
    """``rng``'s draws for ``ns``, one at a time, as ``aigsls_draws`` makes them."""
    return (rng.randrange(n) if n else rng.random() for n in ns)


def _same_stream(draws) -> bool:
    """Whether ``aigsls_draws`` reproduces ``random.Random``: 3 000 draws from
    a fixed seed, ``random()`` or ``randrange(n)`` for n of every bit length
    up to 31, and the generator's state after them."""
    rng = random.Random(_GUARD_SEED)
    mt = array("I", rng.getstate()[1])
    ns = array("i", (0 if i % 3 == 0 else 1 + i * 2654435761 % ((1 << (i % 31 + 1)) - 1)
                     for i in range(3000)))
    out = array("d", bytes(8 * len(ns)))
    draws(_addr(mt), _addr(ns), len(ns), _addr(out))
    return all(map(eq, out, _reference_draws(rng, ns))) and tuple(mt) == rng.getstate()[1]


def _bind(path: str):
    # every call keeps the GIL through PyDLL: run and closures walk on a
    # profile's one walk scratch, so threads can share a profile
    dll = ctypes.PyDLL(path)
    functions = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(dll, "aigsls_" + name)
        fn.restype = restype
        fn.argtypes = argtypes
        functions[name] = fn
    if not _same_stream(functions["draws"]):
        functions["run"] = None         # SearchEngine.run keeps its Python loop
    return types.SimpleNamespace(**functions)


def load():
    """The bound library, compiled first if the cache lacks it; None if that fails.

    A cached file that does not load is compiled again, and a build prunes
    the stale libraries of other sources (``_prune``).  Nothing is printed:
    the compiler's output is captured and dropped.
    """
    try:
        path = _library_path()
        if os.path.exists(path):
            try:
                return _bind(path)
            except (OSError, AttributeError):
                pass
        _compile(path)
        _prune(path)
        return _bind(path)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


def _addr(buf) -> int:
    return buf.buffer_info()[0]


def rows(table) -> tuple:
    """A sequence of int rows as a CSR pair ``(offsets, entries)``, a None
    row empty: the packed child literals of a definition list, say, or the
    parents of each gate."""
    rows = [() if row is None else row for row in table]
    offsets = array("i", [0])
    offsets.extend(accumulate(map(len, rows)))
    return offsets, array("i", chain.from_iterable(rows))


def topology(fin_off: array, fin: array) -> Optional[CSR]:
    """The CSR of the circuit whose gate g has the packed child literals
    ``fin[fin_off[g]:fin_off[g + 1]]``, built by ``aigsls_topology`` around
    those two arrays.

    An empty row reads as an input gate, so the caller rules out childless
    AND gates.  None when a literal names no gate or some gates lie on a
    cycle; the caller then leaves the diagnosis to the pure-Python code.
    """
    n = len(fin_off) - 1
    kid_off, fout_off = array("i", [0]) * (n + 1), array("i", [0]) * (n + 1)
    kid, fout, sign = (array("i", [0]) * len(fin) for _ in range(3))
    order, tpos = array("i", [0]) * n, array("i", [0]) * n
    arrays = CSR(fin_off, fin, fout_off, fout, order, tpos, kid_off, kid, sign)
    edges = lib.topology(n, *map(_addr, (fin_off, fin, kid_off, kid, fout_off, fout, sign,
                                         order, tpos)))
    if edges < 0:
        return None
    del kid[edges:], fout[edges:], sign[edges:]
    return arrays


def parse_binary(data: bytes, pos: int, inputs: int, outputs: int,
                 ands: int) -> Optional[tuple]:
    """``(fin_off, fin, outputs)`` of a binary AIGER file whose output
    section starts at ``pos``, read by ``aigsls_parse_binary``; None when it
    declines, or when ``data`` lacks the two bytes each output line and each
    AND takes at least."""
    if inputs + ands > MAX_VAR or len(data) - pos < 2 * (outputs + ands):
        return None             # checked before allocating anything sized by the counts
    out = array("i", [0]) * outputs
    fin_off, fin = array("i", [0]) * (inputs + ands + 2), array("i", [0]) * (2 * ands)
    if lib.parse_binary(bytes(data), len(data), pos, inputs, outputs, ands, _addr(out),
                        _addr(fin_off), _addr(fin)) < 0:
        return None
    return fin_off, fin, out


def parse_ascii(data: bytes, pos: int, max_var: int, inputs: int, outputs: int,
                ands: int) -> Optional[tuple]:
    """``(fin_off, fin, outputs)`` of an ASCII AIGER file whose input
    section starts at ``pos``, read by ``aigsls_parse_ascii``; None when it
    declines, or when ``data`` lacks a line for every input, output and AND."""
    if max_var > MAX_VAR or data.count(b"\n", pos) < inputs + outputs + ands:
        return None             # checked before allocating anything sized by the counts
    out = array("i", [0]) * outputs
    fin_off, fin = array("i", [0]) * (max_var + 2), array("i", [0]) * (2 * max_var + 2)
    edges = lib.parse_ascii(bytes(data), len(data), pos, max_var, inputs, outputs, ands,
                            _addr(out), _addr(fin_off), _addr(fin))
    if edges < 0:
        return None
    del fin[edges:]
    return fin_off, fin, out


def profile(circuit, level_sum: bool, fanout_split: bool, compensated: bool) -> tuple:
    """``aigsls_profile``'s flags and columns: depth, level, llevel, alevel,
    fanout size, cc0, cc1, co and flow, each a list of one entry per gate.
    ``compensated`` says whether the interpreter's float ``sum`` is
    compensated."""
    n = circuit.num_gates
    arrays = circuit._csr
    inputs = (arrays.order, arrays.fin_off, arrays.fin, arrays.fout_off, arrays.fout,
              arrays.kid_off, arrays.kid)
    columns = tuple(array(code, [0]) * n for code in "iiidiqqqd")
    flags = lib.profile(n, *map(_addr, inputs), level_sum, fanout_split, compensated,
                        *map(_addr, columns))
    return flags, [column.tolist() for column in columns]


def _view(buf):
    """A ctypes view of a writable buffer; it blocks resizing while alive."""
    return (ctypes.c_char * memoryview(buf).nbytes).from_buffer(buf)


def evaluate(circuit, values: bytearray, pinned: bytes):
    """Set every AND gate of ``values`` not set in ``pinned`` to the AND of
    its child literals."""
    arrays = circuit._csr
    lib.evaluate(circuit.num_gates, _addr(arrays.order), _addr(arrays.fin_off),
                 _addr(arrays.fin), pinned, _view(values))


def first_unjust(circuit, values: bytearray) -> int:
    """The first gate whose value in ``values`` differs from the AND of its
    child literals, or -1; ``values`` holds one entry per gate."""
    arrays = circuit._csr
    return lib.first_unjust(circuit.num_gates, _addr(arrays.fin_off), _addr(arrays.fin),
                            _view(values))


class Search:
    """A search's settings as ``aigsls_run`` reads them,
    at ``addr``: the int32 scores ``lo`` and ``hi`` of a measure heuristic
    (None under "rand") and ``neg``, ``walk`` the addresses of the CSR and
    scratch of the closure walk that fills ``lo`` (Nones when none does),
    and the noise ``wp``.  The caller keeps the score arrays alive.

    A measure heuristic also gets the buffer of ``ulist``-ordered scores
    that ``aigsls_run`` gathers on entry and keeps until it returns: one
    int for each of the circuit's ``ands`` AND gates, the most that can be
    unjustified at once."""

    __slots__ = ("_struct", "_usc", "addr")

    def __init__(self, lo, hi, neg: bool, walk: tuple, wp: float, ands: int):
        self._usc = None if lo is None else array("i", [0]) * ands
        self._struct = _SearchStruct(None if lo is None else _addr(lo),
                                     None if hi is None else _addr(hi), neg, *walk, wp,
                                     None if lo is None else _addr(self._usc))
        self.addr = ctypes.addressof(self._struct)


class State:
    """The kernel's handle on one assignment's buffers and its circuit's CSR,
    for ``aigsls_scan`` when the assignment is built and for ``aigsls_run``,
    the only call that steps on them in C.

    ``addr`` is passed to both calls, made through ``lib``, the library
    loaded when the state was built.  The object keeps each buffer it points
    into alive, the assignment's ``nf`` counts among them, and copies the
    fixed ``pinned``.  Two buffers of its own are ``aigsls_run``'s scratch:
    the gates a trial's propagation flipped, and a selection's ties and a
    step's moves.  The struct's ``sel`` is NULL but
    inside an ``aigsls_run`` call under a measure heuristic, where it points
    at the ``Search`` whose scores the flips keep in ``ulist`` order.
    """

    __slots__ = ("_keep", "_struct", "addr", "lib")

    def __init__(self, asg):
        self.lib = lib
        n = asg.circuit.num_gates
        arrays = asg.circuit._csr
        scratch = array("i", [0]) * (n + (n + 31) // 32)
        views = (_view(asg.values), (ctypes.c_char * n).from_buffer_copy(asg.pinned),
                 *map(_view, (asg.ubuf, asg.upos, asg.nf, asg._meta, asg._stamp, scratch,
                              array("i", [0]) * n, array("i", [0]) * n)))
        self._keep = (arrays, views)
        self._struct = _StateStruct(n, *map(_addr, arrays), *map(ctypes.addressof, views))
        self.addr = ctypes.addressof(self._struct)


lib = load()
