/*
 * Compiled backtracking kernel for normalized Cayley-table search.
 *
 * Twin of ``_kernel_py``: the two must stay in lockstep and return equal
 * results, every counter included, for equal arguments.  See the Python
 * module for the algorithm.  Tables are flat row-major byte arrays with
 * EMPTY marking an unfilled cell; row 0 and column 0 hold the identity.
 * A leaf_cb other than None makes run a hunt that stops at the first
 * canonical leaf the callback accepts.
 *
 * Every write to the table T also goes to its transpose Tt, the table of
 * the opposite loop.  A loop is right Bol exactly when its opposite is
 * left Bol, so the one left Bol scan checks Moufang (left and right Bol)
 * as check_left_bol(T) && check_left_bol(Tt).
 *
 * Minimality rejection and canonical_form_bytes share one routine,
 * least_image: a branch and bound over the labelings of image row 1 that
 * keeps no list of relabelings.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <string.h>
#include <time.h>

#define EMPTY 255
/* Bound of the fixed-size arrays below; callers limit orders themselves. */
#define MAX_ORDER 10

/* Equal to the _kernel_py constants; any other id is refused. */
enum {
    CONSTRAINT_NONE = 0,
    CONSTRAINT_LEFT_BOL = 1,
    CONSTRAINT_MOUFANG = 3,
    CONSTRAINT_ASSOC = 4,
};

/* -- search state ---------------------------------------------------------- */

typedef struct {
    int n, constraint, ncells;
    int prefix_only, found, exhausted;
    long long node_budget, nodes, latin_prunes, identity_prunes;
    long long iso_prunes, leaves, canonical;
    double deadline;
    unsigned char T[MAX_ORDER * MAX_ORDER], Tt[MAX_ORDER * MAX_ORDER]; /* Tt: transpose */
    unsigned int row_used[MAX_ORDER], col_used[MAX_ORDER], full_mask;
    PyObject *leaf_cb; /* borrowed */
    PyObject *tables;  /* owned list of bytes */
} Search;

/* The keyword defaults of run and collect_prefixes; everything else 0. */
#define SEARCH_DEFAULTS {.node_budget = 100000000LL, .leaf_cb = Py_None}

static double
monotonic_now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

static int
check_order(int n)
{
    if (n < 1 || n > MAX_ORDER) {
        PyErr_Format(PyExc_ValueError, "kernel supports orders 1..%d, got %d", MAX_ORDER, n);
        return -1;
    }
    return 0;
}

static int
check_constraint(int constraint)
{
    switch (constraint) {
    case CONSTRAINT_NONE:
    case CONSTRAINT_LEFT_BOL:
    case CONSTRAINT_MOUFANG:
    case CONSTRAINT_ASSOC:
        return 0;
    }
    PyErr_Format(PyExc_ValueError, "unknown constraint id %d", constraint);
    return -1;
}

/* Set up s, which starts from SEARCH_DEFAULTS plus the parsed arguments,
 * with the prefix cells filled in; returns the number of prefix cells,
 * where the search starts, or -1 on error. */
static int
search_init(Search *s, int n, int constraint, PyObject *prefix, int prefix_only)
{
    int i, r, c;
    long v;
    PyObject *seq;
    Py_ssize_t len;

    if (check_order(n) < 0 || check_constraint(constraint) < 0)
        return -1;
    s->n = n;
    s->constraint = constraint;
    s->prefix_only = prefix_only;
    memset(s->T, EMPTY, sizeof s->T);
    for (i = 0; i < n; i++) {
        s->T[i] = (unsigned char)i;
        s->T[i * n] = (unsigned char)i;
    }
    memcpy(s->Tt, s->T, sizeof s->T);
    s->full_mask = (1u << n) - 1;
    s->row_used[0] = s->col_used[0] = s->full_mask;
    for (i = 1; i < n; i++)
        s->row_used[i] = s->col_used[i] = 1u << i;
    s->ncells = prefix_only ? n - 1 : (n - 1) * (n - 1);
    s->exhausted = 1;

    if (prefix == Py_None)
        return 0;
    seq = PySequence_Fast(prefix, "prefix must be a sequence of cell values");
    if (seq == NULL)
        return -1;
    len = PySequence_Fast_GET_SIZE(seq);
    if (len > s->ncells) {
        PyErr_Format(PyExc_ValueError, "prefix of %zd cells exceeds the %d free cells",
                     len, s->ncells);
        Py_DECREF(seq);
        return -1;
    }
    for (i = 0; i < len; i++) {
        v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (v < 0 || v >= n) {
            PyErr_Format(PyExc_ValueError, "prefix value %ld out of range for order %d", v, n);
            Py_DECREF(seq);
            return -1;
        }
        r = 1 + i / (n - 1);
        c = 1 + i % (n - 1);
        s->T[r * n + c] = s->Tt[c * n + r] = (unsigned char)v;
        s->row_used[r] |= 1u << v;
        s->col_used[c] |= 1u << v;
    }
    Py_DECREF(seq);
    return (int)len;
}

/* -- identity instance scans ------------------------------------------------ */

/* x(y * xz) = (x * yx)z on table T; instances with x = 0 or z = 0 hold
 * trivially.  On Tt this is the right Bol identity ((zx)y)x = z((xy)x) of T. */
static int
check_left_bol(const unsigned char *T, int n)
{
    int x, y, z, xn, yn;
    unsigned char t1, u1, t2, u2, lhs, rhs;
    for (x = 1; x < n; x++) {
        xn = x * n;
        for (z = 1; z < n; z++) {
            t1 = T[xn + z];
            if (t1 == EMPTY)
                continue;
            for (y = 0; y < n; y++) {
                yn = y * n;
                u1 = T[yn + x];
                if (u1 == EMPTY)
                    continue;
                t2 = T[yn + t1];
                if (t2 == EMPTY)
                    continue;
                u2 = T[xn + u1];
                if (u2 == EMPTY)
                    continue;
                lhs = T[xn + t2];
                if (lhs == EMPTY)
                    continue;
                rhs = T[u2 * n + z];
                if (rhs == EMPTY)
                    continue;
                if (lhs != rhs)
                    return 0;
            }
        }
    }
    return 1;
}

/* (xy)z = x(yz); instances with any variable 0 hold trivially. */
static int
check_assoc(const Search *s)
{
    const unsigned char *T = s->T;
    int n = s->n, x, y, z, xn, yn, t1n;
    unsigned char t1, u1, lhs, rhs;
    for (x = 1; x < n; x++) {
        xn = x * n;
        for (y = 1; y < n; y++) {
            yn = y * n;
            t1 = T[xn + y];
            if (t1 == EMPTY)
                continue;
            t1n = t1 * n;
            for (z = 1; z < n; z++) {
                lhs = T[t1n + z];
                if (lhs == EMPTY)
                    continue;
                u1 = T[yn + z];
                if (u1 == EMPTY)
                    continue;
                rhs = T[xn + u1];
                if (rhs == EMPTY)
                    continue;
                if (lhs != rhs)
                    return 0;
            }
        }
    }
    return 1;
}

static int
identity_ok(const Search *s)
{
    switch (s->constraint) {
    case CONSTRAINT_NONE:
        return 1;
    case CONSTRAINT_LEFT_BOL:
        return check_left_bol(s->T, s->n);
    case CONSTRAINT_MOUFANG:
        return check_left_bol(s->T, s->n) && check_left_bol(s->Tt, s->n);
    default:
        return check_assoc(s);
    }
}

/* -- least image ------------------------------------------------------------- */

/*
 * The least-image walk of the _kernel_py module docs.  p relabels and
 * q = p^-1; p[s] is EMPTY while s is unlabeled, and labels 0..nl-1 are
 * the ones in use.
 */
typedef struct {
    const unsigned char *T;
    unsigned char *bound;
    int n, k, first;
    unsigned char p[MAX_ORDER], q[MAX_ORDER];
} Walk;

/* Rows 2.. of the image; below: an earlier cell is already smaller. */
static int
walk_rest(Walk *w, int below)
{
    const unsigned char *T = w->T, *p = w->p, *q = w->q;
    int n = w->n, i, j;
    unsigned char b, v;
    for (i = 2; i < n && !below; i++) {
        for (j = 1; j < n; j++) {
            b = w->bound[i * n + j];
            v = T[q[i] * n + q[j]];
            if (b == EMPTY || v == EMPTY || p[v] > b)
                return 0;
            if (p[v] < b) {
                below = 1;
                break;
            }
        }
    }
    if (below && !w->first)
        for (i = 0; i < n; i++)
            for (j = 0; j < n; j++)
                w->bound[i * n + j] = p[T[q[i] * n + q[j]]];
    return below;
}

/* Image row 1 from column j on. */
static int
walk_row1(Walk *w, int j, int nl, int below)
{
    int n = w->n, s, v, m, l, found, hit = 0;
    if (j == n)
        return walk_rest(w, below);
    for (s = j < nl ? w->q[j] : 1; s < n; s++) {
        m = nl;
        if (j == nl) {
            if (w->p[s] != EMPTY)
                continue;
            w->p[s] = (unsigned char)m;
            w->q[m++] = (unsigned char)s;
        }
        v = w->T[w->k * n + s];
        if (w->p[v] == EMPTY) {
            w->p[v] = (unsigned char)m;
            w->q[m++] = (unsigned char)v;
        }
        found = 0;
        if (below || w->p[v] < w->bound[n + j])
            found = w->first || walk_row1(w, j + 1, m, 1);
        else if (w->p[v] == w->bound[n + j])
            found = walk_row1(w, j + 1, m, 0);
        for (l = nl; l < m; l++)
            w->p[w->q[l]] = EMPTY;
        if (found) {
            if (w->first)
                return 1;
            /* bound now extends this branch, so later ones compare afresh */
            hit = 1;
            below = 0;
        }
        if (j < nl)
            break;
    }
    return hit;
}

/*
 * 1 if the image of some relabeling with q(1) <= last is smaller than
 * bound.  With first it stops there; without, bound ends as the least
 * image.  Rows 1..last of T and row 1 of bound must be full.  Minimality
 * rejection asks first with bound = T, and the canonical form is the
 * least image of a full table from bound = T.
 */
static int
least_image(const unsigned char *T, unsigned char *bound, int n, int last, int first)
{
    Walk w = {.T = T, .bound = bound, .n = n, .first = first};
    int hit = 0;
    memset(w.p, EMPTY, sizeof w.p);
    w.p[0] = w.q[0] = 0;
    for (w.k = 1; w.k <= last && !(hit && first); w.k++) {
        w.p[w.k] = 1;
        w.q[1] = (unsigned char)w.k;
        hit |= walk_row1(&w, 1, 2, 0);
        w.p[w.k] = EMPTY;
    }
    return hit;
}

static int
min_reject(Search *s, int rows_filled)
{
    return least_image(s->T, s->T, s->n, rows_filled, 1);
}

/* -- leaves and depth-first fill --------------------------------------------- */

/* Store a new reference to a table; -1 on error. */
static int
keep_table(Search *s, PyObject *tb)
{
    int rc;
    if (tb == NULL)
        return -1;
    rc = PyList_Append(s->tables, tb);
    Py_DECREF(tb);
    return rc;
}

/* 0 to keep searching, 1 on find-stop, -1 on error. */
static int
leaf(Search *s)
{
    int n = s->n, hit;
    PyObject *tb, *res;

    if (s->prefix_only)
        return keep_table(s, PyBytes_FromStringAndSize((const char *)&s->T[n + 1], n - 1));
    s->leaves++;
    if (min_reject(s, n - 1))
        return 0;
    s->canonical++;
    tb = PyBytes_FromStringAndSize((const char *)s->T, n * n);
    if (tb == NULL)
        return -1;
    if (s->leaf_cb == Py_None)
        return keep_table(s, tb);
    res = PyObject_CallOneArg(s->leaf_cb, tb);
    hit = res == NULL ? -1 : PyObject_IsTrue(res);
    Py_XDECREF(res);
    if (hit <= 0) {
        Py_DECREF(tb);
        return hit;
    }
    if (keep_table(s, tb) < 0)
        return -1;
    s->found = 1;
    return 1;
}

/* 0 to keep searching, 1 on find-stop, 2 on budget/deadline stop, -1 on error. */
static int
dfs(Search *s, int idx)
{
    int n, r, c, pos, tpos, v, rc, boundary;
    unsigned int avail, bit;

    if (idx == s->ncells)
        return leaf(s);
    n = s->n;
    r = 1 + idx / (n - 1);
    c = 1 + idx % (n - 1);
    pos = r * n + c;
    tpos = c * n + r;
    avail = s->full_mask & ~(s->row_used[r] | s->col_used[c]);
    s->latin_prunes += n - __builtin_popcount(avail);
    boundary = c == n - 1 && r < n - 1;
    while (avail) {
        bit = avail & (~avail + 1u);
        avail ^= bit;
        v = __builtin_ctz(bit);
        s->nodes++;
        if (s->nodes >= s->node_budget) {
            s->exhausted = 0;
            return 2;
        }
        if (s->nodes % 1024 == 0) {
            /* Let Ctrl-C interrupt a long search. */
            if (PyErr_CheckSignals() < 0)
                return -1;
            if (s->deadline != 0.0 && monotonic_now() > s->deadline) {
                s->exhausted = 0;
                return 2;
            }
        }
        s->T[pos] = s->Tt[tpos] = (unsigned char)v;
        s->row_used[r] |= bit;
        s->col_used[c] |= bit;
        if (identity_ok(s)) {
            if (boundary && min_reject(s, r)) {
                s->iso_prunes++;
            }
            else {
                rc = dfs(s, idx + 1);
                if (rc)
                    return rc;
            }
        }
        else {
            s->identity_prunes++;
        }
        s->T[pos] = s->Tt[tpos] = EMPTY;
        s->row_used[r] ^= bit;
        s->col_used[c] ^= bit;
    }
    return 0;
}

/* Run the search from cell start and build the result dict. */
static PyObject *
search_run(Search *s, int start)
{
    int rc;
    s->tables = PyList_New(0);
    if (s->tables == NULL)
        return NULL;
    rc = dfs(s, start);
    if (rc < 0) {
        Py_DECREF(s->tables);
        return NULL;
    }
    if (rc == 1)
        s->exhausted = 0;
    return Py_BuildValue(
        "{s:N,s:N,s:L,s:L,s:L,s:L,s:L,s:L,s:N}",
        "tables", s->tables,
        "found", PyBool_FromLong(s->found),
        "nodes", s->nodes,
        "latin_prunes", s->latin_prunes,
        "identity_prunes", s->identity_prunes,
        "iso_prunes", s->iso_prunes,
        "leaves", s->leaves,
        "canonical", s->canonical,
        "exhausted", PyBool_FromLong(s->exhausted));
}

/* -- module functions ---------------------------------------------------------- */

PyDoc_STRVAR(run_doc,
"run(n, constraint, prefix=None, leaf_cb=None, node_budget=100000000,\n"
"    deadline=0.0)\n"
"--\n\n"
"Search the (sub)tree of normalized order-n tables; see _kernel_py docs.");

static PyObject *
kernel_run(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "constraint", "prefix", "leaf_cb", "node_budget", "deadline",
                             NULL};
    Search s = SEARCH_DEFAULTS;
    int n, constraint, start;
    PyObject *prefix = Py_None;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "ii|OOLd:run", kwlist, &n, &constraint,
                                     &prefix, &s.leaf_cb, &s.node_budget, &s.deadline))
        return NULL;
    start = search_init(&s, n, constraint, prefix, 0);
    if (start < 0)
        return NULL;
    return search_run(&s, start);
}

PyDoc_STRVAR(collect_prefixes_doc,
"collect_prefixes(n, constraint, node_budget=100000000, deadline=0.0)\n"
"--\n\n"
"Enumerate valid completions of row 1, the per-subtree split points.");

static PyObject *
kernel_collect_prefixes(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "constraint", "node_budget", "deadline", NULL};
    Search s = SEARCH_DEFAULTS;
    int n, constraint;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "ii|Ld:collect_prefixes", kwlist, &n,
                                     &constraint, &s.node_budget, &s.deadline))
        return NULL;
    if (search_init(&s, n, constraint, Py_None, 1) < 0)
        return NULL;
    return search_run(&s, 0);
}

PyDoc_STRVAR(canonical_form_bytes_doc,
"canonical_form_bytes(flat, n, /)\n"
"--\n\n"
"Lex-least relabeling of a full normalized table, fixing element 0.");

static PyObject *
kernel_canonical_form_bytes(PyObject *module, PyObject *args)
{
    Py_buffer view;
    int n, i;
    const unsigned char *src;
    unsigned char best[MAX_ORDER * MAX_ORDER];

    if (!PyArg_ParseTuple(args, "y*i:canonical_form_bytes", &view, &n))
        return NULL;
    if (check_order(n) < 0)
        goto fail;
    if (view.len != (Py_ssize_t)n * n) {
        PyErr_SetString(PyExc_ValueError, "flat table has wrong size");
        goto fail;
    }
    src = view.buf;
    for (i = 0; i < n * n; i++) {
        if (src[i] >= n) {
            PyErr_SetString(PyExc_ValueError, "flat table holds a value outside 0..n-1");
            goto fail;
        }
    }
    memcpy(best, src, n * n);
    least_image(src, best, n, n - 1, 0);
    PyBuffer_Release(&view);
    return PyBytes_FromStringAndSize((const char *)best, n * n);

fail:
    PyBuffer_Release(&view);
    return NULL;
}

static PyMethodDef kernel_methods[] = {
    {"run", (PyCFunction)(void (*)(void))kernel_run, METH_VARARGS | METH_KEYWORDS, run_doc},
    {"collect_prefixes", (PyCFunction)(void (*)(void))kernel_collect_prefixes,
     METH_VARARGS | METH_KEYWORDS, collect_prefixes_doc},
    {"canonical_form_bytes", kernel_canonical_form_bytes, METH_VARARGS,
     canonical_form_bytes_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_kernel_c",
    "Compiled backtracking kernel for normalized Cayley-table search.",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel_c(void)
{
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND", "c") < 0
        || PyModule_AddIntConstant(m, "EMPTY", EMPTY) < 0
        || PyModule_AddIntConstant(m, "CONSTRAINT_NONE", CONSTRAINT_NONE) < 0
        || PyModule_AddIntConstant(m, "CONSTRAINT_LEFT_BOL", CONSTRAINT_LEFT_BOL) < 0
        || PyModule_AddIntConstant(m, "CONSTRAINT_MOUFANG", CONSTRAINT_MOUFANG) < 0
        || PyModule_AddIntConstant(m, "CONSTRAINT_ASSOC", CONSTRAINT_ASSOC) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
