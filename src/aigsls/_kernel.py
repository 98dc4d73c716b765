"""The C search kernel: flips, forward propagation, greedy trials and selection.

``Assignment`` keeps its state in flat buffers (``values`` a bytearray, the
unjustified list, its positions and the propagation stamps ``array('i')``),
and every circuit gets CSR ``array('i')`` copies of its fanin, fanout and
topological order the first time the kernel runs on it.  The C code below
reads and writes those buffers in place, so the kernel and the pure-Python
methods of ``Assignment`` can take turns on one assignment.  Gate selection
scans the unjustified list for the least int32 score (the profile's dense
ranks, or closure sizes that it walks the CSR for on first need) and returns
the ties; the choice among them, the choice of justification and every
random draw stay in Python, so both paths follow the same trajectory.

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

SOURCE = r"""
#include <limits.h>
#include <string.h>

/* CSR circuit plus one assignment's buffers; mirrors State in _kernel.py */
typedef struct {
    int n;
    const int *fin_off, *fin, *fout_off, *fout, *order, *tpos;
    unsigned char *val;
    const unsigned char *pin;
    int *ulist, *upos, *meta, *stamp, *heap, *undo;
    int *ties, *wstamp, *wstack;
    /* meta: unjust count, propagation generation, closure-walk generation */
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

static int in_range(const State *s, const int *gates, int k)
{
    for (int i = 0; i < k; i++)
        if (gates[i] < 0 || gates[i] >= s->n)
            return 0;
    return 1;
}

/* size of g's transitive closure over the CSR (off, adj), g excluded; adj
   entries are shifted right by shift, so 1 reads packed literals as gates */
static int reach(State *s, const int *off, const int *adj, int shift, int g)
{
    int *stamp = s->wstamp, *stack = s->wstack, top = 0, count = 0;
    if (s->meta[2] == INT_MAX) {
        memset(stamp, 0, sizeof(int) * (size_t)s->n);
        s->meta[2] = 0;
    }
    int gen = ++s->meta[2];
    stamp[g] = gen;
    stack[top++] = g;
    while (top > 0) {
        int x = stack[--top];
        for (int i = off[x]; i < off[x + 1]; i++) {
            int y = adj[i] >> shift;
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
   at 0 and hi[g] while at 1, negated when neg.  walk 1 (fanin) or 2
   (fanout) makes lo a closure-size cache: a candidate's negative entry is
   first filled by a walk over that CSR. */
int aigsls_select(State *s, int *lo, const int *hi, int neg, int walk)
{
    int count = s->meta[0], k = 0, best = INT_MAX;
    for (int i = 0; i < count; i++) {
        int g = s->ulist[i];
        if (walk && lo[g] < 0)
            lo[g] = walk == 1 ? reach(s, s->fin_off, s->fin, 1, g)
                              : reach(s, s->fout_off, s->fout, 0, g);
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

void aigsls_flip(State *s, int g) { flip(s, g); }

int aigsls_rollback(State *s, const int *log, int k)
{
    if (!in_range(s, log, k))
        return -1;
    rollback(s, log, k);
    return 0;
}

int aigsls_propagate(State *s, const int *origins, int k)
{
    if (!in_range(s, origins, k))
        return -1;
    return propagate(s, origins, k, s->undo);
}

/* unjust count after flipping the k gates and propagating, then undone */
int aigsls_trial(State *s, const int *flips, int k)
{
    if (!in_range(s, flips, k))
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
    if (!in_range(s, flips, k))
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
"""

FLAGS = ("-O2", "-shared", "-fPIC")

#: ``aigsls_select``'s walk argument for the closure measures
WALKS = {"tfi": 1, "tfo": 2}

_P, _I = ctypes.c_void_p, ctypes.c_int
_SIGNATURES = {
    "flip": (None, [_P, _I]),
    "rollback": (_I, [_P, _P, _I]),
    "propagate": (_I, [_P, _P, _I]),
    "trial": (_I, [_P, _P, _I]),
    "move": (_I, [_P, _P, _I]),
    "evaluate": (None, [_I, _P, _P, _P, _P]),
    "scan": (None, [_P]),
    "select": (_I, [_P, _P, _P, _I, _I]),
}

_CSR_FIELDS = ("fin_off", "fin", "fout_off", "fout", "order", "tpos")
_BUFFER_FIELDS = ("val", "pin", "ulist", "upos", "meta", "stamp", "heap", "undo",
                  "ties", "wstamp", "wstack")


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
    dll = ctypes.CDLL(path)
    functions = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(dll, "aigsls_" + name)
        fn.restype = restype
        fn.argtypes = argtypes
        functions[name] = fn
    return types.SimpleNamespace(dll=dll, **functions)


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


def _offsets(rows) -> array:
    offsets = array("i", [0])
    offsets.extend(accumulate(map(len, rows)))
    return offsets


def csr(circuit) -> tuple:
    """The circuit's CSR arrays, built once and kept on the circuit.

    fanin offsets and packed child literals, fanout offsets and parents,
    ``topo_order`` and ``topo_pos``.
    """
    arrays = circuit._csr
    if arrays is None:
        kids = [k if k is not None else () for k in circuit.fanin]
        arrays = circuit._csr = (
            _offsets(kids), array("i", chain.from_iterable(kids)),
            _offsets(circuit.fanout), array("i", chain.from_iterable(circuit.fanout)),
            array("i", circuit.topo_order), array("i", circuit.topo_pos))
    return arrays


def _view(buf):
    """A ctypes view of a writable buffer; it blocks resizing while alive."""
    return (ctypes.c_char * memoryview(buf).nbytes).from_buffer(buf)


def evaluate(circuit, values: bytearray):
    """Set every AND gate of ``values`` to the AND of its child literals."""
    fin_off, fin, _, _, order, _ = csr(circuit)
    lib.evaluate(circuit.num_gates, order.buffer_info()[0], fin_off.buffer_info()[0],
                 fin.buffer_info()[0], _view(values))


class State:
    """The kernel's handle on one assignment's buffers and its circuit's CSR.

    ``addr`` is passed to every kernel call.  The object keeps each buffer
    it points into alive; ``pinned`` is copied, so a new State is needed
    when the assignment's pins are replaced.  ``undo`` receives the gates a
    propagation flipped and ``ties`` the gates a selection tied on.
    """

    __slots__ = ("_keep", "_struct", "addr", "undo", "ties")

    def __init__(self, circuit, values, pinned, ulist, upos, meta, stamp):
        n = circuit.num_gates
        arrays = csr(circuit)
        heap, self.undo, self.ties, wstamp, wstack = (array("i", [0]) * n for _ in range(5))
        views = (_view(values), (ctypes.c_char * n).from_buffer_copy(pinned),
                 *map(_view, (ulist, upos, meta, stamp, heap, self.undo, self.ties,
                              wstamp, wstack)))
        self._keep = (arrays, views)
        self._struct = _StateStruct(n, *(a.buffer_info()[0] for a in arrays),
                                    *map(ctypes.addressof, views))
        self.addr = ctypes.addressof(self._struct)


lib = load()
