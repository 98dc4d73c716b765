"""The C kernel: AIGER parsing, circuit topology, structural profile and the
search steps.

A circuit is its CSR ``array('i')`` buffers (``CSR``: fanin, distinct child
gates, fanout, topological order and positions) on both paths.  At load time
``aigsls_parse_binary`` or ``aigsls_parse_ascii`` writes a file's child
literals straight into the fanin buffers, and ``aigsls_topology`` builds the
rest from them; ``build_circuit`` hands it the literals of a definition list
instead.  Without the kernel, ``build_circuit``'s pure-Python code packs the
same buffers with ``rows``.  ``aigsls_profile`` fills every column of
``StructuralProfile`` from them.

``Assignment`` keeps its state in flat buffers (``values`` a bytearray, the
unjustified list, its positions and the propagation stamps ``array('i')``).
The C code below reads and writes those buffers and the circuit's CSR in
place.  An assignment built while ``lib`` is loaded keeps a ``State`` on
them and runs in C; one built without it runs in Python.  ``SearchEngine``
calls ``aigsls_select`` for the former: it scans the unjustified list for
the least int32 score (the profile's dense ranks, or closure sizes that it,
like ``aigsls_closures``, walks the CSR for on first need) and returns the
ties; the choice among them, the choice of justification and every random
draw stay in Python, so both paths follow the same trajectory.
``verify_satisfying`` scans the whole circuit with ``aigsls_first_unjust``.

The library is compiled with ``cc`` when this module is first imported and
cached under ``$XDG_CACHE_HOME/aigsls`` (default ``~/.cache/aigsls``), keyed
by the source, the flags and the machine.  ``lib`` is None when no compiler
works or the library cannot be loaded; ``Assignment`` then runs its
pure-Python methods, which are also the reference the tests compare against.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import types
from array import array
from itertools import accumulate, chain
from typing import NamedTuple, Optional

SOURCE = r"""
#include <limits.h>
#include <string.h>

/* CSR circuit plus one assignment's buffers; mirrors State in _kernel.py */
typedef struct {
    int n;
    const int *fin_off, *fin, *fout_off, *fout, *order, *tpos;
    unsigned char *val;
    const unsigned char *pin;
    int *ulist, *upos, *meta, *stamp, *heap, *undo, *ties;
    /* meta: unjust count, propagation generation */
} State;

/* 1 iff g is an AND gate whose value differs from the AND of its child literals */
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

static void refresh(State *s, int g)
{
    int pos = s->upos[g];
    if (!unjust(s->fin_off, s->fin, s->val, g)) {
        if (pos >= 0) {
            int last = s->ulist[--s->meta[0]];
            s->ulist[pos] = last;
            s->upos[last] = pos;
            s->upos[g] = -1;
        }
    } else if (pos < 0) {
        s->upos[g] = s->meta[0];
        s->ulist[s->meta[0]++] = g;
    }
}

static void flip(State *s, int g)
{
    s->val[g] ^= 1;
    refresh(s, g);
    for (int i = s->fout_off[g]; i < s->fout_off[g + 1]; i++)
        refresh(s, s->fout[i]);
}

static void push(int *heap, int h, int x)
{
    while (h > 0 && heap[(h - 1) >> 1] > x) {
        heap[h] = heap[(h - 1) >> 1];
        h = (h - 1) >> 1;
    }
    heap[h] = x;
}

/* remove and return the smallest of the h entries */
static int pop(int *heap, int h)
{
    int top = heap[0], x = heap[--h], i = 0;
    for (;;) {
        int c = 2 * i + 1;
        if (c >= h)
            break;
        if (c + 1 < h && heap[c + 1] < heap[c])
            c++;
        if (x <= heap[c])
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = x;
    return top;
}

/* Assignment.propagate_forward; returns the number of gates it flipped and
   writes them to log when log is not NULL */
static int propagate(State *s, const int *origins, int k, int *log)
{
    int *stamp = s->stamp, *heap = s->heap, h = 0, flipped = 0;
    if (s->meta[1] > INT_MAX - 2) {
        memset(stamp, 0, sizeof(int) * (size_t)s->n);
        s->meta[1] = 0;
    }
    int seen = s->meta[1] + 1, origin = seen + 1;
    s->meta[1] = origin;
    for (int i = 0; i < k; i++)
        if (stamp[origins[i]] != origin) {
            stamp[origins[i]] = origin;
            push(heap, h++, s->tpos[origins[i]]);
        }
    while (h > 0) {
        int g = s->order[pop(heap, h--)];
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
                stamp[p] = seen;
                push(heap, h++, s->tpos[p]);
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

static int in_range(int n, const int *gates, int k)
{
    for (int i = 0; i < k; i++)
        if (gates[i] < 0 || gates[i] >= n)
            return 0;
    return 1;
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

/* Gate selection: writes the unjustified gates of least score to ties, in
   ulist order, and returns how many there are.  A gate scores lo[g] while
   at 0 and hi[g] while at 1, negated when neg.  A walk makes lo the
   closure-size cache of the CSR (off, adj): a candidate's negative entry
   is first filled by reach. */
int aigsls_select(State *s, int *lo, const int *hi, int neg, const int *off, const int *adj, int *walk)
{
    int count = s->meta[0], k = 0, best = INT_MAX;
    for (int i = 0; i < count; i++) {
        int g = s->ulist[i];
        if (walk && lo[g] < 0)
            lo[g] = reach(off, adj, s->n, walk, g);
        int v = s->val[g] ? hi[g] : lo[g];
        if (neg)
            v = -v;
        if (v < best) {
            best = v;
            k = 0;
        }
        if (v == best)
            s->ties[k++] = g;
    }
    return k;
}

/* The entry points below that take a gate list return -1, and change
   nothing, when a gate is out of range. */

/* fills each negative size[g] of the k gates by reach */
int aigsls_closures(int n, const int *off, const int *adj, int *walk, int *size,
                    const int *gates, int k)
{
    if (!in_range(n, gates, k))
        return -1;
    for (int i = 0; i < k; i++)
        if (size[gates[i]] < 0)
            size[gates[i]] = reach(off, adj, n, walk, gates[i]);
    return 0;
}

void aigsls_flip(State *s, int g) { flip(s, g); }

int aigsls_rollback(State *s, const int *log, int k)
{
    if (!in_range(s->n, log, k))
        return -1;
    rollback(s, log, k);
    return 0;
}

int aigsls_propagate(State *s, const int *origins, int k)
{
    if (!in_range(s->n, origins, k))
        return -1;
    return propagate(s, origins, k, s->undo);
}

/* unjust count after flipping the k gates and propagating, then undone */
int aigsls_trial(State *s, const int *flips, int k)
{
    if (!in_range(s->n, flips, k))
        return -1;
    for (int i = 0; i < k; i++)
        flip(s, flips[i]);
    int n = propagate(s, flips, k, s->undo);
    int count = s->meta[0];
    rollback(s, s->undo, n);
    rollback(s, flips, k);
    return count;
}

/* flip the k gates and propagate; returns the number of gates flipped */
int aigsls_move(State *s, const int *flips, int k)
{
    if (!in_range(s->n, flips, k))
        return -1;
    for (int i = 0; i < k; i++)
        flip(s, flips[i]);
    return k + propagate(s, flips, k, NULL);
}

void aigsls_evaluate(int n, const int *order, const int *fin_off, const int *fin,
                     unsigned char *val)
{
    for (int i = 0; i < n; i++) {
        int g = order[i], a = fin_off[g], b = fin_off[g + 1], v = 1;
        if (a == b)
            continue;
        for (; a < b; a++)
            if (!(val[fin[a] >> 1] ^ (fin[a] & 1))) {
                v = 0;
                break;
            }
        val[g] = v;
    }
}

/* fill an empty unjustified list in index order */
void aigsls_scan(State *s)
{
    for (int g = 0; g < s->n; g++)
        if (unjust(s->fin_off, s->fin, s->val, g)) {
            s->upos[g] = s->meta[0];
            s->ulist[s->meta[0]++] = g;
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
   rows (fin_off, fin): an input's row is empty, and AIGER's constant
   literals 0 and 1 swap (lit ^ (lit < 2)) because gate 0 is an input pinned
   to 1.  They accept only a strict grammar and return -1, declining, on
   anything else, valid or not; the pure-Python parser then reads the file
   and gives every diagnostic.  The caller keeps m at most 2^30 - 1, so every
   literal fits an int. */

/* binary AIGER's a AND gates as delta pairs in data[pos..len), gates 1..i
   being the inputs: fin_off needs i + a + 2 entries and fin 2a.  Declines a
   delta code past 32 bits or past the end of data, and operands out of
   order. */
int aigsls_parse_binary(const unsigned char *data, long long len, long long pos, int i, int a,
                        int *fin_off, int *fin)
{
    if (pos < 0)
        return -1;
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

/* ASCII AIGER's input, output and AND sections from data[pos]: i lines of
   one field, o lines of one field (their literals go to out) and a lines of
   three fields, each field [0-9]+, fields separated by one space, every line
   ended by '\n'; what follows the AND section is ignored.  fin_off needs
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

/* build_circuit's topology from the packed child literals (fin_off, fin)
   of n gates: each gate's distinct child gates in first-occurrence order
   (kid_off, kid), its parents in index order (fout_off, fout), and Kahn's
   topological order, seeded in index order, with each gate's position in
   it.  kid and fout need room for fin_off[n] entries.  Returns the number
   of distinct child edges, or -1 when a literal names no gate or some
   gates lie on a cycle. */
int aigsls_topology(int n, const int *fin_off, const int *fin, int *kid_off, int *kid,
                    int *fout_off, int *fout, int *order, int *tpos)
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
    for (int g = 0; g < n; g++)
        for (int i = kid_off[g]; i < kid_off[g + 1]; i++)
            fout[tpos[kid[i]]++] = g;
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

/* aigsls_profile's flags: cc0/cc1 or co left int64, a gate with three or
   more distinct children */
#define CC_OVERFLOW 1
#define CO_OVERFLOW 2
#define WIDE 4

/* a literal's cost of driving it to 1: its gate's cc1, or cc0 through an
   inverter */
static long long to_one(const long long *cc0, const long long *cc1, int lit)
{
    return lit & 1 ? cc0[lit >> 1] : cc1[lit >> 1];
}

/* Every column of StructuralProfile in two passes over the topological
   order, with the same operations in the same order as the pure-Python
   compute_* functions, so integers and floats come out identical.
   Children first: level, llevel, alevel (averaging child alevel, or child
   level when level_sum), cc0, cc1.  Parents first: depth, fanout size, co
   and flow (split by the parent's distinct children, or by its fanout when
   fanout_split).  Returns the flags above; a column whose overflow flag is
   set holds no meaningful values, and co is not computed after a cc
   overflow. */
int aigsls_profile(int n, const int *order, const int *fin_off, const int *fin,
                   const int *fout_off, const int *fout, const int *kid_off, const int *kid,
                   int level_sum, int fanout_split,
                   int *depth, int *level, int *llevel, double *alevel, int *fo,
                   long long *cc0, long long *cc1, long long *co, double *flow)
{
    int flags = 0;
    for (int i = 0; i < n; i++) {
        int g = order[i], a = kid_off[g], b = kid_off[g + 1];
        if (a == b) {
            level[g] = llevel[g] = 0;
            alevel[g] = 0.0;
            cc0[g] = cc1[g] = 1;
            continue;
        }
        if (b - a >= 3)
            flags |= WIDE;
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
            if (__builtin_add_overflow(total, to_one(cc0, cc1, p), &total))
                flags |= CC_OVERFLOW;
        }
        if (__builtin_add_overflow(least, 1, &cc0[g]) || __builtin_add_overflow(total, 1, &cc1[g]))
            flags |= CC_OVERFLOW;
    }
    if (flags & CC_OVERFLOW)
        flags |= CO_OVERFLOW;
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
            if (!(flags & CO_OVERFLOW)) {
                /* observe g through p: p's co plus driving every sibling edge to 1 */
                long long cost = co[p];
                for (int k = fin_off[p]; k < fin_off[p + 1]; k++)
                    if (fin[k] >> 1 != g && __builtin_add_overflow(cost, to_one(cc0, cc1, fin[k]), &cost))
                        flags |= CO_OVERFLOW;
                if (cost < best)
                    best = cost;
            }
            int split = fanout_split ? fout_off[p + 1] - fout_off[p] : kid_off[p + 1] - kid_off[p];
            total += flow[p] / (split ? split : 1);
        }
        depth[g] = 1 + deepest;
        if (!(flags & CO_OVERFLOW) && __builtin_add_overflow(best, 1, &co[g]))
            flags |= CO_OVERFLOW;
        flow[g] = total;
    }
    return flags;
}
"""

FLAGS = ("-O2", "-shared", "-fPIC")

_P, _I, _L = ctypes.c_void_p, ctypes.c_int, ctypes.c_longlong
_SIGNATURES = {
    "flip": (None, [_P, _I]),
    "rollback": (_I, [_P, _P, _I]),
    "propagate": (_I, [_P, _P, _I]),
    "trial": (_I, [_P, _P, _I]),
    "move": (_I, [_P, _P, _I]),
    "evaluate": (None, [_I, _P, _P, _P, _P]),
    "scan": (None, [_P]),
    "select": (_I, [_P, _P, _P, _I, _P, _P, _P]),
    "closures": (_I, [_I] + [_P] * 5 + [_I]),
    "topology": (_I, [_I] + [_P] * 8),
    "profile": (_I, [_I] + [_P] * 7 + [_I, _I] + [_P] * 9),
    "first_unjust": (_I, [_I, _P, _P, _P]),
    "parse_binary": (_I, [ctypes.c_char_p, _L, _L, _I, _I, _P, _P]),
    "parse_ascii": (_I, [ctypes.c_char_p, _L, _L, _I, _I, _I, _I, _P, _P, _P]),
}

#: the most AIGER variables the parsers take: 2 * MAX_VAR + 1 fits an int
MAX_VAR = 2**30 - 1

#: ``aigsls_profile``'s flags
CC_OVERFLOW, CO_OVERFLOW, WIDE = 1, 2, 4

_CSR_FIELDS = ("fin_off", "fin", "fout_off", "fout", "order", "tpos")
_BUFFER_FIELDS = ("val", "pin", "ulist", "upos", "meta", "stamp", "heap", "undo", "ties")


class _StateStruct(ctypes.Structure):
    _fields_ = [("n", _I)] + [(name, _P) for name in _CSR_FIELDS + _BUFFER_FIELDS]


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


def _bind(path: str):
    # every call keeps the GIL through PyDLL: select and closures walk on a
    # profile's one walk scratch, so threads can share a profile
    dll = ctypes.PyDLL(path)
    functions = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(dll, "aigsls_" + name)
        fn.restype = restype
        fn.argtypes = argtypes
        functions[name] = fn
    return types.SimpleNamespace(**functions)


def load():
    """The bound library, compiled first if the cache lacks it; None if that fails.

    A cached file that does not load is compiled again.  Nothing is printed:
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
        return _bind(path)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


class CSR(NamedTuple):
    """A circuit's topology as flat ``array('i')`` buffers.

    Row g of a CSR pair (offsets, entries) is ``entries[offsets[g]:offsets[g + 1]]``:
    the packed child literals of g (``fin``), its parents (``fout``) and its
    distinct child gates (``kid``).  ``order`` is the topological order and
    ``tpos[g]`` is g's position in it.
    """

    fin_off: array
    fin: array
    fout_off: array
    fout: array
    order: array
    tpos: array
    kid_off: array
    kid: array


def _addr(buf) -> int:
    return buf.buffer_info()[0]


def rows(table) -> Optional[tuple]:
    """A sequence of int rows as a CSR pair ``(offsets, entries)``, a None
    row empty: the packed child literals of a definition list, say, or the
    parents of each gate.  None when an entry does not fit an int32."""
    rows = [() if row is None else row for row in table]
    try:
        entries = array("i", chain.from_iterable(rows))
    except OverflowError:
        return None
    offsets = array("i", [0])
    offsets.extend(accumulate(map(len, rows)))
    return offsets, entries


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
    kid, fout = array("i", [0]) * len(fin), array("i", [0]) * len(fin)
    order, tpos = array("i", [0]) * n, array("i", [0]) * n
    arrays = CSR(fin_off, fin, fout_off, fout, order, tpos, kid_off, kid)
    edges = lib.topology(n, *map(_addr, (fin_off, fin, kid_off, kid, fout_off, fout,
                                         order, tpos)))
    if edges < 0:
        return None
    del kid[edges:], fout[edges:]
    return arrays


def parse_binary(data: bytes, pos: int, inputs: int, ands: int) -> Optional[CSR]:
    """The CSR of a binary AIGER file whose AND section starts at ``pos``,
    decoded by ``aigsls_parse_binary``; None when it declines.

    The caller has checked that ``data`` holds two bytes per AND at least.
    """
    if inputs + ands > MAX_VAR:
        return None
    fin_off, fin = array("i", [0]) * (inputs + ands + 2), array("i", [0]) * (2 * ands)
    if lib.parse_binary(bytes(data), len(data), pos, inputs, ands, _addr(fin_off),
                        _addr(fin)) < 0:
        return None
    return topology(fin_off, fin)


def parse_ascii(data: bytes, pos: int, max_var: int, inputs: int, outputs: int,
                ands: int) -> Optional[tuple]:
    """(CSR, output literals) of an ASCII AIGER file whose input section
    starts at ``pos``, read by ``aigsls_parse_ascii``; None when it declines.

    The caller has checked that ``data`` holds a line for every input, output
    and AND.
    """
    if max_var > MAX_VAR or outputs > MAX_VAR:
        return None
    out = array("i", [0]) * outputs
    fin_off, fin = array("i", [0]) * (max_var + 2), array("i", [0]) * (2 * max_var + 2)
    edges = lib.parse_ascii(bytes(data), len(data), pos, max_var, inputs, outputs, ands,
                            _addr(out), _addr(fin_off), _addr(fin))
    if edges < 0:
        return None
    del fin[edges:]
    arrays = topology(fin_off, fin)
    return None if arrays is None else (arrays, out)


def profile(circuit, level_sum: bool, fanout_split: bool) -> tuple:
    """``aigsls_profile``'s flags and columns: depth, level, llevel, alevel,
    fanout size, cc0, cc1, co and flow, each an array of one entry per gate."""
    n = circuit.num_gates
    arrays = circuit._csr
    inputs = (arrays.order, arrays.fin_off, arrays.fin, arrays.fout_off, arrays.fout,
              arrays.kid_off, arrays.kid)
    columns = tuple(array(code, [0]) * n for code in "iiidiqqqd")
    flags = lib.profile(n, *map(_addr, inputs), level_sum, fanout_split,
                        *map(_addr, columns))
    return flags, columns


def _view(buf):
    """A ctypes view of a writable buffer; it blocks resizing while alive."""
    return (ctypes.c_char * memoryview(buf).nbytes).from_buffer(buf)


def evaluate(circuit, values: bytearray):
    """Set every AND gate of ``values`` to the AND of its child literals."""
    arrays = circuit._csr
    lib.evaluate(circuit.num_gates, _addr(arrays.order), _addr(arrays.fin_off),
                 _addr(arrays.fin), _view(values))


def first_unjust(circuit, values: bytearray) -> int:
    """The first gate whose value in ``values`` differs from the AND of its
    child literals, or -1; ``values`` holds one entry per gate."""
    arrays = circuit._csr
    return lib.first_unjust(circuit.num_gates, _addr(arrays.fin_off), _addr(arrays.fin),
                            _view(values))


class State:
    """The kernel's handle on one assignment's buffers and its circuit's CSR.

    ``addr`` is passed to every kernel call, made through ``lib``, the library
    loaded when the state was built.  The object keeps each buffer it points
    into alive and copies the fixed ``pinned``.  ``undo`` receives the gates
    a propagation flipped and ``ties`` the gates a selection tied on.
    """

    __slots__ = ("_keep", "_struct", "addr", "lib", "undo", "ties")

    def __init__(self, asg):
        self.lib = lib
        n = asg.circuit.num_gates
        arrays = asg.circuit._csr
        heap, self.undo, self.ties = (array("i", [0]) * n for _ in range(3))
        views = (_view(asg.values), (ctypes.c_char * n).from_buffer_copy(asg.pinned),
                 *map(_view, (asg.ubuf, asg.upos, asg._meta, asg._stamp, heap, self.undo,
                              self.ties)))
        self._keep = (arrays, views)
        self._struct = _StateStruct(n, *(_addr(getattr(arrays, name))
                                         for name in _CSR_FIELDS),
                                    *map(ctypes.addressof, views))
        self.addr = ctypes.addressof(self._struct)


lib = load()
