/* Accelerated core for the 2D step-function cost field.
 *
 * Stores the coefficients of an n x m step function (n = 2^p, m = 2^q) over
 * the orthogonal block basis (per axis: +1/-1 half-blocks at dyadic scales,
 * plus the all-ones vector).  Rectangle sum queries and rectangle constant
 * increments touch at most (2p+1)*(2q+1) coefficients.
 *
 * Every coefficient is stored divided by one global scale, so inflation
 * (geometric decay of all non-constant coefficients) multiplies the scale by
 * rho and divides the constant coefficient, which never decays, by rho.
 * Once the scale falls below FOLD_BELOW it is folded into every coefficient
 * and reset to 1, an O(n*m) step that a decay of 0.995 per inflate takes
 * once in 4425 inflates, or that an increase takes first where its value
 * over the scale would overflow.
 *
 * Single writer: increase/inflate require exclusive access; cost leaves the
 * coefficients unchanged but records last_touched, so concurrent readers are
 * safe while no mutation is in flight.
 *
 * FootprintIndex holds macro footprints by macro index, bucketed in a grid
 * of cells, so an overlap query tests only the boxes near it.
 * PlacementStore is the placer's placement: centers, footprints (in a
 * FootprintIndex), net boxes and live overlap pairs, so that a round commits
 * its move in one call.  The module function score_candidate scores one
 * candidate move of the placer (field sum, net terms, overlap penalty
 * against the index, and blockage term).  Both do the float operations of
 * the placer's Python reference in its order, so they return its bits
 * (build with -ffp-contract=off so no multiply-add is fused).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#define MAX_AXIS_COMPONENTS 64 /* 2*exponent + 1; exponents are capped well below */
#define FOLD_BELOW 0x1p-32     /* smallest scale kept apart from the coefficients */

typedef struct {
    PyObject_HEAD
    int p, q;
    Py_ssize_t n, m;
    double *coef;  /* n*m coefficients over scale, flat axis-major: coef[fx*m + fy] */
    double scale;  /* in [FOLD_BELOW, 1]: the factor every stored coef omits */
    Py_ssize_t last_touched;
} FieldCore;

/* Nonzero 1D components of the indicator of cells [s, t) (0-based).
 * Writes flat axis ids, their inner products, and the reciprocal of each
 * element's squared norm (a power of two, so division by it is exact);
 * returns the count.  The all-ones component is always last. */
static int
axis_components(Py_ssize_t s, Py_ssize_t t, int p, Py_ssize_t n,
                Py_ssize_t *ids, double *stars, double *inv_norms)
{
    int cnt = 0;
    for (int a = 0; a < p; a++) {
        Py_ssize_t span2 = (Py_ssize_t)2 << a; /* support size = squared norm */
        double inv = 1.0 / (double)span2;
        Py_ssize_t base = n - (n >> a);
        Py_ssize_t ks = s > 0 ? (s + span2 - 1) / span2 : 0;
        Py_ssize_t kt = (t + span2 - 1) / span2;
        if (ks) {
            Py_ssize_t lo = (2 * ks - 2) << a;
            Py_ssize_t hi = (2 * ks) << a;
            Py_ssize_t d1 = s - lo, d2 = hi - s;
            Py_ssize_t v = -(d1 < d2 ? d1 : d2);
            if (kt == ks) {
                Py_ssize_t e1 = t - lo, e2 = hi - t;
                v += (e1 < e2 ? e1 : e2);
            }
            if (v) {
                ids[cnt] = base + ks - 1;
                inv_norms[cnt] = inv;
                stars[cnt++] = (double)v;
            }
        }
        if (kt != ks) {
            Py_ssize_t lo = (2 * kt - 2) << a;
            Py_ssize_t hi = (2 * kt) << a;
            Py_ssize_t e1 = t - lo, e2 = hi - t;
            Py_ssize_t v = e1 < e2 ? e1 : e2;
            if (v) {
                ids[cnt] = base + kt - 1;
                inv_norms[cnt] = inv;
                stars[cnt++] = (double)v;
            }
        }
    }
    ids[cnt] = n - 1;
    inv_norms[cnt] = 1.0 / (double)n;
    stars[cnt++] = (double)(t - s);
    return cnt;
}

static int
check_rect(FieldCore *self, Py_ssize_t a1, Py_ssize_t b1, Py_ssize_t a2, Py_ssize_t b2)
{
    if (a1 < 0 || b1 < 0 || a1 >= a2 || b1 >= b2 || a2 > self->n || b2 > self->m) {
        PyErr_Format(PyExc_ValueError,
                     "rectangle (%zd,%zd)-(%zd,%zd) invalid for %zdx%zd grid",
                     a1, b1, a2, b2, self->n, self->m);
        return -1;
    }
    return 0;
}

/* Multiplies every non-constant coefficient by s and the constant one by the
 * scale, then resets the scale to 1: O(n*m). */
static void
fold_scale(FieldCore *self, double s)
{
    Py_ssize_t last = self->n * self->m - 1; /* the constant element */
    for (Py_ssize_t k = 0; k < last; k++)
        self->coef[k] *= s;
    self->coef[last] *= self->scale;
    self->scale = 1.0;
}

static PyObject *
FieldCore_increase(FieldCore *self, PyObject *args)
{
    Py_ssize_t a1, b1, a2, b2;
    double value;
    if (!PyArg_ParseTuple(args, "nnnnd:increase", &a1, &b1, &a2, &b2, &value))
        return NULL;
    if (check_rect(self, a1, b1, a2, b2) < 0)
        return NULL;

    Py_ssize_t ix[MAX_AXIS_COMPONENTS], iy[MAX_AXIS_COMPONENTS];
    double sx[MAX_AXIS_COMPONENTS], sy[MAX_AXIS_COMPONENTS];
    double nx[MAX_AXIS_COMPONENTS], ny[MAX_AXIS_COMPONENTS];
    int kx = axis_components(a1, a2, self->p, self->n, ix, sx, nx);
    int ky = axis_components(b1, b2, self->q, self->m, iy, sy, ny);

    /* expansion coefficients take the projection: inner product over the
     * element's squared norm; a value the scale would overflow takes the
     * scale folded in first */
    double v = value / self->scale;
    if (!isfinite(v) && isfinite(value)) {
        fold_scale(self, self->scale);
        v = value / self->scale;
    }
    double *C = self->coef;
    Py_ssize_t m = self->m;
    for (int i = 0; i < kx; i++) {
        double vx = sx[i] * nx[i] * v;
        Py_ssize_t row = ix[i] * m;
        for (int j = 0; j < ky; j++)
            C[row + iy[j]] += vx * (sy[j] * ny[j]);
    }
    self->last_touched = (Py_ssize_t)kx * ky;
    Py_RETURN_NONE;
}

/* Sum of the cells of a rectangle that passed check_rect; records
 * last_touched. */
static double
field_cost(FieldCore *self, Py_ssize_t a1, Py_ssize_t b1, Py_ssize_t a2, Py_ssize_t b2)
{
    Py_ssize_t ix[MAX_AXIS_COMPONENTS], iy[MAX_AXIS_COMPONENTS];
    double sx[MAX_AXIS_COMPONENTS], sy[MAX_AXIS_COMPONENTS];
    double nx[MAX_AXIS_COMPONENTS], ny[MAX_AXIS_COMPONENTS];
    int kx = axis_components(a1, a2, self->p, self->n, ix, sx, nx);
    int ky = axis_components(b1, b2, self->q, self->m, iy, sy, ny);

    double *C = self->coef;
    Py_ssize_t m = self->m;
    double tot = 0.0;
    for (int i = 0; i < kx; i++) {
        Py_ssize_t row = ix[i] * m;
        double sub = 0.0;
        for (int j = 0; j < ky; j++)
            sub += C[row + iy[j]] * sy[j];
        tot += sub * sx[i];
    }
    self->last_touched = (Py_ssize_t)kx * ky;
    return tot * self->scale;
}

static PyObject *
FieldCore_cost(FieldCore *self, PyObject *args)
{
    Py_ssize_t a1, b1, a2, b2;
    if (!PyArg_ParseTuple(args, "nnnn:cost", &a1, &b1, &a2, &b2))
        return NULL;
    if (check_rect(self, a1, b1, a2, b2) < 0)
        return NULL;
    return PyFloat_FromDouble(field_cost(self, a1, b1, a2, b2));
}

static PyObject *
FieldCore_inflate(FieldCore *self, PyObject *args)
{
    double rho;
    if (!PyArg_ParseTuple(args, "d:inflate", &rho))
        return NULL;
    if (!(rho > 0.0 && rho <= 1.0)) {
        PyErr_SetString(PyExc_ValueError, "decay factor must be in (0, 1]");
        return NULL;
    }
    double s = self->scale * rho;
    if (s < FOLD_BELOW) {
        fold_scale(self, s);
    }
    else {
        self->scale = s;
        self->coef[self->n * self->m - 1] /= rho; /* the constant never decays */
    }
    Py_RETURN_NONE;
}

static PyObject *
FieldCore_coefficient(FieldCore *self, PyObject *args)
{
    Py_ssize_t fx, fy;
    if (!PyArg_ParseTuple(args, "nn:coefficient", &fx, &fy))
        return NULL;
    if (fx < 0 || fx >= self->n || fy < 0 || fy >= self->m) {
        PyErr_SetString(PyExc_ValueError, "axis component id out of range");
        return NULL;
    }
    return PyFloat_FromDouble(self->coef[fx * self->m + fy] * self->scale);
}

static int
FieldCore_init(FieldCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"p", "q", NULL};
    int p, q;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "ii", kwlist, &p, &q))
        return -1;
    if (p < 0 || q < 0 || p >= 30 || q >= 30) {
        PyErr_SetString(PyExc_ValueError, "grid exponents out of range");
        return -1;
    }
    self->p = p;
    self->q = q;
    self->n = (Py_ssize_t)1 << p;
    self->m = (Py_ssize_t)1 << q;
    free(self->coef);
    self->coef = calloc((size_t)(self->n * self->m), sizeof(double));
    self->scale = 1.0;
    self->last_touched = 0;
    if (self->coef == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void
FieldCore_dealloc(FieldCore *self)
{
    free(self->coef);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
FieldCore_get_last_touched(FieldCore *self, void *closure)
{
    return PyLong_FromSsize_t(self->last_touched);
}

static PyMethodDef FieldCore_methods[] = {
    {"increase", (PyCFunction)FieldCore_increase, METH_VARARGS,
     "increase(a1, b1, a2, b2, value)\n\nAdd value to every cell of the rectangle."},
    {"cost", (PyCFunction)FieldCore_cost, METH_VARARGS,
     "cost(a1, b1, a2, b2) -> float\n\nSum of all cell values inside the rectangle."},
    {"inflate", (PyCFunction)FieldCore_inflate, METH_VARARGS,
     "inflate(rho)\n\nDecay every non-constant coefficient by rho."},
    {"coefficient", (PyCFunction)FieldCore_coefficient, METH_VARARGS,
     "coefficient(fx, fy) -> float\n\nCurrent coefficient by flat axis ids."},
    {NULL}
};

static PyGetSetDef FieldCore_getset[] = {
    {"last_touched", (getter)FieldCore_get_last_touched, NULL,
     "number of coefficients touched by the most recent increase/cost", NULL},
    {NULL}
};

static PyTypeObject FieldCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "stepplace._fieldcore.FieldCore",
    .tp_doc = "Coefficient store with logarithmic rectangle sum/increment.",
    .tp_basicsize = sizeof(FieldCore),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)FieldCore_init,
    .tp_dealloc = (destructor)FieldCore_dealloc,
    .tp_methods = FieldCore_methods,
    .tp_getset = FieldCore_getset,
};

/* Coordinate `axis` of pin i of a net whose moving pin, at `moving`, is pin
 * j; the other pins are stored in order as x, y pairs in `fixed`. */
static inline double
pin_at(const double *fixed, Py_ssize_t j, const double *moving, Py_ssize_t i, int axis)
{
    return i == j ? moving[axis] : fixed[2 * (i - (i > j)) + axis];
}

/* First largest and first smallest coordinate in pin order, as Python's
 * max() and min() pick them. */
static void
axis_extremes(const double *fixed, Py_ssize_t n, Py_ssize_t j, const double *moving,
              int axis, double *hi, double *lo)
{
    double h = pin_at(fixed, j, moving, 0, axis), l = h;
    for (Py_ssize_t i = 1; i < n; i++) {
        double v = pin_at(fixed, j, moving, i, axis);
        if (v > h)
            h = v;
        if (v < l)
            l = v;
    }
    *hi = h;
    *lo = l;
}

/* netmodel._lse_axis */
static double
lse_axis(const double *fixed, Py_ssize_t n, Py_ssize_t j, const double *moving,
         int axis, double alpha)
{
    double hi, lo, sp = 0.0, sn = 0.0;
    axis_extremes(fixed, n, j, moving, axis, &hi, &lo);
    for (Py_ssize_t i = 0; i < n; i++) {
        double v = pin_at(fixed, j, moving, i, axis);
        sp += exp((v - hi) / alpha);
        sn += exp((lo - v) / alpha);
    }
    double pos = alpha * log(sp) + hi;
    double neg = alpha * log(sn) - lo;
    return pos + neg;
}

/* one axis of netmodel.nl_netlength */
static double
edge_axis(double d, double beta)
{
    double a = fabs(beta * d);
    return (a + log1p(exp(-2.0 * a))) / beta;
}

/* netmodel.model_length of one net; -1 with its exception set where it raises */
static int
net_length(const double *fixed, Py_ssize_t n, Py_ssize_t j, const double *moving,
           PyObject *beta_obj, double beta, double *out)
{
    if (beta_obj == Py_None) {
        double hx, lx, hy, ly;
        axis_extremes(fixed, n, j, moving, 0, &hx, &lx);
        axis_extremes(fixed, n, j, moving, 1, &hy, &ly);
        *out = hx - lx + hy - ly;
        return 0;
    }
    if (n == 2) {
        if (!(beta > 0.0)) {
            PyErr_SetString(PyExc_ValueError, "beta must be positive");
            return -1;
        }
        double dx = pin_at(fixed, j, moving, 0, 0) - pin_at(fixed, j, moving, 1, 0);
        double dy = pin_at(fixed, j, moving, 0, 1) - pin_at(fixed, j, moving, 1, 1);
        *out = edge_axis(dx, beta) + edge_axis(dy, beta);
        return 0;
    }
    if (beta == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    double alpha = 1.0 / beta;
    if (!(alpha > 0.0)) {
        PyErr_SetString(PyExc_ValueError, "alpha must be positive");
        return -1;
    }
    *out = lse_axis(fixed, n, j, moving, 0, alpha) + lse_axis(fixed, n, j, moving, 1, alpha);
    return 0;
}

/* Acquire obj as a C-contiguous buffer of doubles, or raise TypeError naming
 * `what`; on success the caller releases the view. */
static int
get_doubles(PyObject *obj, Py_buffer *view, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != sizeof(double) || view->format == NULL
        || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be a buffer of doubles", what);
        return -1;
    }
    return 0;
}

/* Add to *score the length of each net packed in pins[0:len], in order, with
 * the moving pin at `moving`; -1 with an exception set on a malformed record
 * or a bad beta.  A record is the net's pin count n, the index j of the
 * moving pin among them, then the other n - 1 pins' x, y in order. */
static int
add_net_terms(double *score, const double *moving, PyObject *beta_obj, double beta,
              const double *pins, Py_ssize_t len)
{
    for (Py_ssize_t i = 0; i < len;) {
        double nd = pins[i];
        /* n >= 2 pins: the header, then the n - 1 fixed pins, all in range */
        if (!(nd >= 2.0 && 2.0 * nd <= (double)(len - i)) || nd != floor(nd)) {
            PyErr_Format(PyExc_ValueError, "malformed net record at offset %zd", i);
            return -1;
        }
        Py_ssize_t n = (Py_ssize_t)nd;
        double jd = pins[i + 1];
        if (!(jd >= 0.0 && jd < nd) || jd != floor(jd)) {
            PyErr_Format(PyExc_ValueError, "malformed net record at offset %zd", i);
            return -1;
        }
        double length;
        if (net_length(pins + i + 2, n, (Py_ssize_t)jd, moving, beta_obj, beta, &length) < 0)
            return -1;
        *score += length;
        i += 2 * n;
    }
    return 0;
}

/* Python's max(a, b) and min(a, b): the first argument unless the second is
 * strictly beyond it (this decides which zero a tie of 0.0 and -0.0 keeps) */
static inline double
py_max(double a, double b)
{
    return b > a ? b : a;
}

static inline double
py_min(double a, double b)
{
    return b < a ? b : a;
}

/* Keys in no particular order: one cell's, or the slots of one macro's pairs. */
typedef struct {
    Py_ssize_t *keys;
    Py_ssize_t len, cap;
} Bucket;

typedef struct {
    PyObject_HEAD
    Py_ssize_t count;      /* keys are 0 .. count - 1 */
    Py_ssize_t cols, rows; /* cells; the border ones reach to infinity */
    double cell_x, cell_y;
    Bucket *cells;         /* cols * rows, cells[i * rows + j] */
    double *boxes;         /* x1, y1, x2, y2 per key; NaN while it has none */
    Py_ssize_t *mark;      /* per key: the last query that tested it */
    Py_ssize_t query;
    Py_ssize_t *found;     /* the keys the last query found */
} FootprintIndex;

/* The cell of coordinate v along an axis of n cells of the given size;
 * values beyond either border (and NaN) fall in the border cells. */
static inline Py_ssize_t
cell_at(double v, double size, Py_ssize_t n)
{
    double f = floor(v / size);
    if (!(f > 0.0))
        return 0;
    return f < (double)(n - 1) ? (Py_ssize_t)f : n - 1;
}

/* The first and last column and row of the cells a box's closed extent
 * touches. */
static void
box_cells(const FootprintIndex *idx, const double *box, Py_ssize_t *c)
{
    c[0] = cell_at(box[0], idx->cell_x, idx->cols);
    c[1] = cell_at(box[1], idx->cell_y, idx->rows);
    c[2] = cell_at(box[2], idx->cell_x, idx->cols);
    c[3] = cell_at(box[3], idx->cell_y, idx->rows);
}

static int
compare_keys(const void *a, const void *b)
{
    Py_ssize_t x = *(const Py_ssize_t *)a, y = *(const Py_ssize_t *)b;
    return (x > y) - (x < y);
}

/* Writes to idx->found, ascending, every key but skip whose box meets the
 * query with positive area (netmodel.overlaps); returns their count.  Two
 * such boxes share the cell of a common point, and the clamp at the border
 * is monotone, so the cells the query's closed extent touches hold them. */
static Py_ssize_t
index_hits(FootprintIndex *idx, const double *query, Py_ssize_t skip)
{
    Py_ssize_t c[4], q = ++idx->query, n = 0;
    box_cells(idx, query, c);
    for (Py_ssize_t i = c[0]; i <= c[2]; i++) {
        for (Py_ssize_t j = c[1]; j <= c[3]; j++) {
            const Bucket *b = &idx->cells[i * idx->rows + j];
            for (Py_ssize_t t = 0; t < b->len; t++) {
                Py_ssize_t k = b->keys[t];
                if (idx->mark[k] == q || k == skip)
                    continue;
                idx->mark[k] = q;
                const double *f = idx->boxes + 4 * k;
                if (py_max(query[0], f[0]) < py_min(query[2], f[2])
                    && py_max(query[1], f[1]) < py_min(query[3], f[3]))
                    idx->found[n++] = k;
            }
        }
    }
    /* a footprint meets a few boxes: sort them in place, unless many */
    Py_ssize_t *found = idx->found;
    if (n > 16) {
        qsort(found, (size_t)n, sizeof(Py_ssize_t), compare_keys);
    } else {
        for (Py_ssize_t a = 1; a < n; a++) {
            Py_ssize_t k = found[a], b = a;
            for (; b > 0 && found[b - 1] > k; b--)
                found[b] = found[b - 1];
            found[b] = k;
        }
    }
    return n;
}

static void
FootprintIndex_dealloc(FootprintIndex *self)
{
    for (Py_ssize_t c = 0; self->cells != NULL && c < self->cols * self->rows; c++)
        free(self->cells[c].keys);
    free(self->cells);
    free(self->boxes);
    free(self->mark);
    free(self->found);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
FootprintIndex_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"count", "width", "height", "min_cell_x", "min_cell_y", NULL};
    Py_ssize_t count;
    double width, height, min_x, min_y;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "ndddd:FootprintIndex", kwlist, &count,
                                     &width, &height, &min_x, &min_y))
        return NULL;
    if (count < 0 || count > PY_SSIZE_T_MAX / (Py_ssize_t)(4 * sizeof(double))) {
        PyErr_Format(PyExc_ValueError, "count %zd out of range", count);
        return NULL;
    }
    if (!(width > 0.0 && height > 0.0 && min_x > 0.0 && min_y > 0.0 && isfinite(width)
          && isfinite(height) && isfinite(min_x) && isfinite(min_y))) {
        PyErr_SetString(PyExc_ValueError,
                        "area sides and cell sizes must be positive and finite");
        return NULL;
    }
    FootprintIndex *self = (FootprintIndex *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    /* cells at least min_cell_x by min_cell_y, and at most about count */
    Py_ssize_t side = (Py_ssize_t)sqrt((double)count);
    while (side * side > count)
        side--;
    while ((side + 1) * (side + 1) <= count)
        side++;
    side = side > 1 ? side : 1;
    double fx = floor(width / min_x), fy = floor(height / min_y);
    self->cols = fx < 1.0 ? 1 : fx < (double)side ? (Py_ssize_t)fx : side;
    self->rows = fy < 1.0 ? 1 : fy < (double)side ? (Py_ssize_t)fy : side;
    self->cell_x = width / (double)self->cols;
    self->cell_y = height / (double)self->rows;
    self->count = count;
    size_t n = count ? (size_t)count : 1;
    self->cells = calloc((size_t)(self->cols * self->rows), sizeof(Bucket));
    self->boxes = malloc(4 * n * sizeof(double));
    self->mark = calloc(n, sizeof(Py_ssize_t));
    self->found = malloc(n * sizeof(Py_ssize_t));
    if (!self->cells || !self->boxes || !self->mark || !self->found) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t k = 0; k < 4 * count; k++)
        self->boxes[k] = NAN;
    return (PyObject *)self;
}

/* The key, or -1 with an exception set if it is not one of the index's. */
static Py_ssize_t
index_key(FootprintIndex *self, PyObject *obj)
{
    Py_ssize_t key = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    if (key == -1 && PyErr_Occurred())
        return -1;
    if (key < 0 || key >= self->count) {
        PyErr_Format(PyExc_ValueError, "key %zd out of range for %zd footprints", key,
                     self->count);
        return -1;
    }
    return key;
}

/* Room in b for `extra` more keys; -1 with MemoryError set if there is none. */
static int
bucket_reserve(Bucket *b, Py_ssize_t extra)
{
    if (b->len + extra <= b->cap)
        return 0;
    Py_ssize_t cap = b->cap ? 2 * b->cap : 4;
    while (cap < b->len + extra)
        cap *= 2;
    Py_ssize_t *keys = realloc(b->keys, (size_t)cap * sizeof(Py_ssize_t));
    if (keys == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    b->keys = keys;
    b->cap = cap;
    return 0;
}

/* Removes one key that b holds; the order of the others changes. */
static void
bucket_remove(Bucket *b, Py_ssize_t key)
{
    Py_ssize_t t = 0;
    while (b->keys[t] != key)
        t++;
    b->keys[t] = b->keys[--b->len];
}

/* Stores box under key, or moves it there; -1 with an exception set, and the
 * index as it was, on a box that is not finite or a failed allocation. */
static int
index_put(FootprintIndex *self, Py_ssize_t key, const double *box)
{
    Py_ssize_t c[4];
    if (!(isfinite(box[0]) && isfinite(box[1]) && isfinite(box[2]) && isfinite(box[3]))) {
        PyErr_SetString(PyExc_ValueError, "footprint must be finite");
        return -1;
    }
    /* room first */
    box_cells(self, box, c);
    for (Py_ssize_t i = c[0]; i <= c[2]; i++)
        for (Py_ssize_t j = c[1]; j <= c[3]; j++)
            if (bucket_reserve(&self->cells[i * self->rows + j], 1) < 0)
                return -1;
    double *old = self->boxes + 4 * key;
    if (!isnan(old[0])) {
        Py_ssize_t o[4];
        box_cells(self, old, o);
        for (Py_ssize_t i = o[0]; i <= o[2]; i++)
            for (Py_ssize_t j = o[1]; j <= o[3]; j++)
                bucket_remove(&self->cells[i * self->rows + j], key);
    }
    for (Py_ssize_t i = c[0]; i <= c[2]; i++) {
        for (Py_ssize_t j = c[1]; j <= c[3]; j++) {
            Bucket *b = &self->cells[i * self->rows + j];
            b->keys[b->len++] = key;
        }
    }
    memcpy(old, box, 4 * sizeof(double));
    return 0;
}

static PyObject *
FootprintIndex_put(FootprintIndex *self, PyObject *args)
{
    PyObject *key_obj;
    double box[4];
    if (!PyArg_ParseTuple(args, "O(dddd):put", &key_obj, &box[0], &box[1], &box[2], &box[3]))
        return NULL;
    Py_ssize_t key = index_key(self, key_obj);
    if (key < 0 || index_put(self, key, box) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
FootprintIndex_hits(FootprintIndex *self, PyObject *args)
{
    double query[4];
    if (!PyArg_ParseTuple(args, "dddd:hits", &query[0], &query[1], &query[2], &query[3]))
        return NULL;
    Py_ssize_t n = index_hits(self, query, -1);
    PyObject *out = PyList_New(n);
    for (Py_ssize_t t = 0; out != NULL && t < n; t++) {
        PyObject *k = PyLong_FromSsize_t(self->found[t]);
        if (k == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, t, k);
    }
    return out;
}

static PyObject *
FootprintIndex_subscript(FootprintIndex *self, PyObject *key_obj)
{
    Py_ssize_t key = index_key(self, key_obj);
    if (key < 0)
        return NULL;
    const double *f = self->boxes + 4 * key;
    if (isnan(f[0])) {
        PyErr_Format(PyExc_KeyError, "key %zd holds no footprint", key);
        return NULL;
    }
    PyObject *box = PyTuple_New(4);
    for (int c = 0; box != NULL && c < 4; c++) {
        PyObject *v = PyFloat_FromDouble(f[c]);
        if (v == NULL)
            Py_CLEAR(box);
        else
            PyTuple_SET_ITEM(box, c, v);
    }
    return box;
}

static PyMethodDef FootprintIndex_methods[] = {
    {"put", (PyCFunction)FootprintIndex_put, METH_VARARGS,
     "put(key, box)\n\nStore the footprint box (x1, y1, x2, y2) under key, or move it there."},
    {"hits", (PyCFunction)FootprintIndex_hits, METH_VARARGS,
     "hits(x1, y1, x2, y2) -> list[int]\n\n"
     "Keys whose box meets the query with positive area, ascending."},
    {NULL}
};

static PyMappingMethods FootprintIndex_mapping = {
    .mp_subscript = (binaryfunc)FootprintIndex_subscript,
};

static PyTypeObject FootprintIndexType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "stepplace._fieldcore.FootprintIndex",
    .tp_doc = "FootprintIndex(count, width, height, min_cell_x, min_cell_y)\n\n"
              "Finite footprint boxes keyed 0 .. count - 1 in a grid of cells over\n"
              "a width x height area: cells at least min_cell_x by min_cell_y, at\n"
              "most about count of them, the border cells reaching to infinity.\n"
              "index[key] is the box stored under key.  netmodel.BucketGrid is its\n"
              "Python counterpart.",
    .tp_basicsize = sizeof(FootprintIndex),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = FootprintIndex_new,
    .tp_dealloc = (destructor)FootprintIndex_dealloc,
    .tp_methods = FootprintIndex_methods,
    .tp_as_mapping = &FootprintIndex_mapping,
};

/* placer.snap_to_grid: the cells of an n x m grid over a width x height
 * area that cover box clipped to the area, half-open, written to r; 1 if
 * the clipped box is not empty, else 0; -1 with an exception set where the
 * cover leaves the grid. */
static int
snap_box(const double *box, double width, double height, Py_ssize_t n, Py_ssize_t m,
         Py_ssize_t *r)
{
    double sx1 = py_max(box[0], 0.0), sy1 = py_max(box[1], 0.0);
    double sx2 = py_min(box[2], width), sy2 = py_min(box[3], height);
    if (!(sx1 < sx2 && sy1 < sy2))
        return 0;
    double cx = width / (double)n, cy = height / (double)m;
    double fa1 = floor(sx1 / cx), fb1 = floor(sy1 / cy);
    double fa2 = ceil(sx2 / cx), fb2 = ceil(sy2 / cy);
    /* rules out NaN and anything a cast could not hold */
    if (!(0.0 <= fa1 && fa1 <= fa2 && fa2 <= (double)n
          && 0.0 <= fb1 && fb1 <= fb2 && fb2 <= (double)m)) {
        PyErr_SetString(PyExc_ValueError, "footprint snaps outside the grid");
        return -1;
    }
    r[0] = (Py_ssize_t)fa1;
    r[1] = (Py_ssize_t)fb1;
    r[2] = (Py_ssize_t)fa2 > r[0] + 1 ? (Py_ssize_t)fa2 : r[0] + 1;
    r[3] = (Py_ssize_t)fb2 > r[1] + 1 ? (Py_ssize_t)fb2 : r[1] + 1;
    return 1;
}

/* stepplace.placer.py_candidate_score in one call, term for term in its
 * order: the field sum under the footprint snapped to the grid, the net
 * terms, the overlap penalty against every box of the footprint index but
 * key `skip`'s, in key order, and the weighted blockage overlap areas. */
static PyObject *
score_candidate(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 14) {
        PyErr_Format(PyExc_TypeError, "score_candidate expected 14 arguments, got %zd",
                     nargs);
        return NULL;
    }
    if (!PyObject_TypeCheck(args[0], &FieldCoreType)) {
        PyErr_SetString(PyExc_TypeError, "core must be a FieldCore");
        return NULL;
    }
    FieldCore *core = (FieldCore *)args[0];
    double x = PyFloat_AsDouble(args[1]), y = PyFloat_AsDouble(args[2]);
    double hx = PyFloat_AsDouble(args[3]), hy = PyFloat_AsDouble(args[4]);
    double width = PyFloat_AsDouble(args[5]), height = PyFloat_AsDouble(args[6]);
    double beta = args[7] == Py_None ? 0.0 : PyFloat_AsDouble(args[7]);
    Py_ssize_t skip = PyNumber_AsSsize_t(args[10], PyExc_OverflowError);
    double factor = PyFloat_AsDouble(args[11]), weight = PyFloat_AsDouble(args[13]);
    if (PyErr_Occurred())
        return NULL;

    if (!PyObject_TypeCheck(args[9], &FootprintIndexType)) {
        PyErr_SetString(PyExc_TypeError, "footprints must be a FootprintIndex");
        return NULL;
    }
    FootprintIndex *footprints = (FootprintIndex *)args[9];
    if (skip < 0 || skip >= footprints->count) {
        PyErr_Format(PyExc_ValueError, "skip index %zd out of range for %zd footprints",
                     skip, footprints->count);
        return NULL;
    }

    PyObject *result = NULL;
    Py_buffer pins, blk;
    if (get_doubles(args[8], &pins, "pins") < 0)
        return NULL;
    if (get_doubles(args[12], &blk, "blockages") < 0)
        goto release_pins;
    Py_ssize_t n_blk = blk.len / (Py_ssize_t)sizeof(double);
    if (n_blk % 4) {
        PyErr_SetString(PyExc_ValueError, "blockages must hold 4 doubles per box");
        goto release_all;
    }
    if (!(isfinite(x) && isfinite(y))) {
        PyErr_SetString(PyExc_ValueError, "candidate center must be finite");
        goto release_all;
    }

    const double fx1 = x - hx, fy1 = y - hy, fx2 = x + hx, fy2 = y + hy;
    double score = 0.0;

    const double fp[4] = {fx1, fy1, fx2, fy2};
    Py_ssize_t r[4];
    int snapped = snap_box(fp, width, height, core->n, core->m, r);
    if (snapped < 0 || (snapped && check_rect(core, r[0], r[1], r[2], r[3]) < 0))
        goto release_all;
    if (snapped)
        score = field_cost(core, r[0], r[1], r[2], r[3]);

    const double moving[2] = {x, y};
    if (add_net_terms(&score, moving, args[7], beta, pins.buf,
                      pins.len / (Py_ssize_t)sizeof(double)) < 0)
        goto release_all;

    /* placer.penalty: circumference of every positive-area meet, in key
     * order, so the same floats are added in the same order as by a scan
     * over every footprint */
    Py_ssize_t n_hits = index_hits(footprints, fp, skip);
    double circ = 0.0;
    for (Py_ssize_t t = 0; t < n_hits; t++) {
        const double *f = footprints->boxes + 4 * footprints->found[t];
        double ix1 = py_max(fx1, f[0]), iy1 = py_max(fy1, f[1]);
        double ix2 = py_min(fx2, f[2]), iy2 = py_min(fy2, f[3]);
        circ += 2.0 * ((ix2 - ix1) + (iy2 - iy1));
    }
    score += factor * circ;

    const double *b = blk.buf;
    for (Py_ssize_t k = 0; k < n_blk; k += 4) {
        double ix1 = py_max(fx1, b[k]), iy1 = py_max(fy1, b[k + 1]);
        double ix2 = py_min(fx2, b[k + 2]), iy2 = py_min(fy2, b[k + 3]);
        if (ix1 < ix2 && iy1 < iy2)
            score += weight * ((ix2 - ix1) * (iy2 - iy1));
    }
    result = PyFloat_FromDouble(score);

release_all:
    PyBuffer_Release(&blk);
release_pins:
    PyBuffer_Release(&pins);
    return result;
}

/* The placer's placement, as stepplace.placer.PlacementStore keeps it in
 * Python: each macro's center, half-sizes and footprint (in a FootprintIndex),
 * the nets as index arrays with their bounding-box lengths, and the live
 * overlap pairs with their areas in the order the pairs entered. */
typedef struct {
    PyObject_HEAD
    FootprintIndex *index;         /* the footprints, keyed by macro index */
    PyTypeObject *rect_type;       /* the tuple type of move's rectangles */
    Py_ssize_t count;              /* macros */
    double *half, *center;         /* hx, hy and x, y per macro */
    double width, height;
    Py_ssize_t cells_x, cells_y;   /* the field's grid, for snapping */
    Py_ssize_t n_nets;
    Py_ssize_t *net_at, *members;  /* net k: members[net_at[k] .. net_at[k + 1]) */
    Py_ssize_t *nets_at, *nets_of; /* macro i: nets_of[nets_at[i] .. nets_at[i + 1]) */
    double *net_bb;                /* per net */
    /* a dropped pair's slot is dead (first index -1, area +0.0) until the
     * dead slots exceed a quarter of the live ones and are compacted away;
     * adding +0.0 to a sum of non-negative areas changes no bit */
    Py_ssize_t n_slots, cap_slots, n_live;
    Py_ssize_t *pair;              /* i, j per slot, i < j */
    double *area;                  /* per slot */
    Bucket *partners;              /* per macro: the slots of its live pairs */
    Py_ssize_t *slot_of, *scratch; /* per macro; slot_of is -1 between calls */
    double *meets;                 /* 4 per macro: the meets of one move */
} PlacementStore;

static PyObject *array_type; /* array.array: pins returns its instances */

/* netmodel.bb_netlength of net k: ((max x - min x) + max y) - min y, each
 * extreme the first in member order, as Python's max and min pick it. */
static double
net_box(const PlacementStore *s, Py_ssize_t k)
{
    const Py_ssize_t *mem = s->members + s->net_at[k];
    Py_ssize_t n = s->net_at[k + 1] - s->net_at[k];
    const double *c = s->center;
    double hx = c[2 * mem[0]], lx = hx, hy = c[2 * mem[0] + 1], ly = hy;
    for (Py_ssize_t t = 1; t < n; t++) {
        double x = c[2 * mem[t]], y = c[2 * mem[t] + 1];
        if (x > hx)
            hx = x;
        if (x < lx)
            lx = x;
        if (y > hy)
            hy = y;
        if (y < ly)
            ly = y;
    }
    return hx - lx + hy - ly;
}

/* Room for `need` slots in all; -1 with MemoryError set if there is none. */
static int
reserve_slots(PlacementStore *s, Py_ssize_t need)
{
    if (need <= s->cap_slots)
        return 0;
    Py_ssize_t cap = s->cap_slots ? 2 * s->cap_slots : 64;
    while (cap < need)
        cap *= 2;
    Py_ssize_t *pair = realloc(s->pair, (size_t)cap * 2 * sizeof(Py_ssize_t));
    if (pair == NULL)
        goto nomem;
    s->pair = pair;
    double *area = realloc(s->area, (size_t)cap * sizeof(double));
    if (area == NULL)
        goto nomem;
    s->area = area;
    s->cap_slots = cap;
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

static inline Py_ssize_t
partner(const PlacementStore *s, Py_ssize_t slot, Py_ssize_t i)
{
    return s->pair[2 * slot] == i ? s->pair[2 * slot + 1] : s->pair[2 * slot];
}

/* Drops the dead slots; the live ones keep their order. */
static void
compact_pairs(PlacementStore *s)
{
    Py_ssize_t t = 0;
    for (Py_ssize_t sl = 0; sl < s->n_slots; sl++) {
        if (s->pair[2 * sl] < 0)
            continue;
        if (t != sl) {
            /* renumbered in ascending order, so a partner list holds sl
             * once, beside new numbers below t and old ones above sl */
            for (int e = 0; e < 2; e++) {
                Bucket *b = &s->partners[s->pair[2 * sl + e]];
                Py_ssize_t u = 0;
                while (b->keys[u] != sl)
                    u++;
                b->keys[u] = t;
            }
            s->pair[2 * t] = s->pair[2 * sl];
            s->pair[2 * t + 1] = s->pair[2 * sl + 1];
            s->area[t] = s->area[sl];
        }
        t++;
    }
    s->n_slots = t;
}

/* Brings the pairs of macro i up to date with its footprint, as
 * placer.PlacementStore._update_overlaps does: a pair that stays keeps its
 * slot and takes its new area, a new pair takes a slot at the end, and a
 * dropped pair's slot dies.  The meets with the other footprints go to
 * s->meets in index order.  Returns their count, or -1 with MemoryError set
 * and nothing changed. */
static Py_ssize_t
update_pairs(PlacementStore *s, Py_ssize_t i)
{
    FootprintIndex *idx = s->index;
    const double *box = idx->boxes + 4 * i;
    Py_ssize_t n = index_hits(idx, box, i);
    Bucket *mine = &s->partners[i];
    /* room first */
    if (reserve_slots(s, s->n_slots + n) < 0 || bucket_reserve(mine, n - mine->len) < 0)
        return -1;
    for (Py_ssize_t t = 0; t < n; t++)
        if (bucket_reserve(&s->partners[idx->found[t]], 1) < 0)
            return -1;

    for (Py_ssize_t t = 0; t < mine->len; t++)
        s->slot_of[partner(s, mine->keys[t], i)] = mine->keys[t];
    for (Py_ssize_t t = 0; t < n; t++) {
        Py_ssize_t j = idx->found[t], sl = s->slot_of[j];
        const double *f = idx->boxes + 4 * j;
        double *m = s->meets + 4 * t;
        m[0] = py_max(box[0], f[0]);
        m[1] = py_max(box[1], f[1]);
        m[2] = py_min(box[2], f[2]);
        m[3] = py_min(box[3], f[3]);
        if (sl >= 0) {
            s->slot_of[j] = -1;
        } else {
            sl = s->n_slots++;
            s->pair[2 * sl] = i < j ? i : j;
            s->pair[2 * sl + 1] = i < j ? j : i;
            s->n_live++;
            Bucket *theirs = &s->partners[j];
            theirs->keys[theirs->len++] = sl;
        }
        s->area[sl] = (m[2] - m[0]) * (m[3] - m[1]);
        s->scratch[t] = sl;
    }
    for (Py_ssize_t t = 0; t < mine->len; t++) {
        Py_ssize_t sl = mine->keys[t], j = partner(s, sl, i);
        if (s->slot_of[j] == sl) { /* no longer a hit: the pair ends */
            s->pair[2 * sl] = -1;
            s->area[sl] = 0.0;
            s->n_live--;
            bucket_remove(&s->partners[j], sl);
        }
        s->slot_of[j] = -1;
    }
    memcpy(mine->keys, s->scratch, (size_t)n * sizeof(Py_ssize_t));
    mine->len = n;
    if (4 * (s->n_slots - s->n_live) > s->n_live)
        compact_pairs(s);
    return n;
}

static void
PlacementStore_dealloc(PlacementStore *self)
{
    for (Py_ssize_t i = 0; self->partners != NULL && i < self->count; i++)
        free(self->partners[i].keys);
    free(self->partners);
    free(self->half);
    free(self->center);
    free(self->net_at);
    free(self->members);
    free(self->nets_at);
    free(self->nets_of);
    free(self->net_bb);
    free(self->pair);
    free(self->area);
    free(self->slot_of);
    free(self->scratch);
    free(self->meets);
    Py_XDECREF(self->index);
    Py_XDECREF(self->rect_type);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Reads the nets into the store's arrays: each a sequence of at least two
 * distinct macro indices.  -1 with an exception set on a bad net. */
static int
read_nets(PlacementStore *self, PyObject *nets_obj)
{
    PyObject *nets = PySequence_Fast(nets_obj, "nets must be a sequence");
    if (nets == NULL)
        return -1;
    Py_ssize_t n_nets = PySequence_Fast_GET_SIZE(nets), total = 0;
    int ok = 0;
    self->n_nets = n_nets;
    self->net_at = malloc((size_t)(n_nets + 1) * sizeof(Py_ssize_t));
    self->net_bb = malloc((size_t)(n_nets ? n_nets : 1) * sizeof(double));
    self->nets_at = calloc((size_t)self->count + 1, sizeof(Py_ssize_t));
    if (!self->net_at || !self->net_bb || !self->nets_at) {
        PyErr_NoMemory();
        goto done;
    }
    self->net_at[0] = 0;
    for (Py_ssize_t k = 0; k < n_nets; k++) {
        PyObject *net = PySequence_Fast(PySequence_Fast_GET_ITEM(nets, k),
                                        "each net must be a sequence");
        if (net == NULL)
            goto done;
        Py_ssize_t n = PySequence_Fast_GET_SIZE(net);
        Py_ssize_t *mem = realloc(self->members, (size_t)(total + n + 1) * sizeof(Py_ssize_t));
        if (mem == NULL) {
            Py_DECREF(net);
            PyErr_NoMemory();
            goto done;
        }
        self->members = mem;
        if (n < 2)
            PyErr_Format(PyExc_ValueError, "net %zd has fewer than 2 members", k);
        for (Py_ssize_t t = 0; t < n && !PyErr_Occurred(); t++) {
            Py_ssize_t i = PyNumber_AsSsize_t(PySequence_Fast_GET_ITEM(net, t),
                                              PyExc_OverflowError);
            if (PyErr_Occurred())
                break;
            if (i < 0 || i >= self->count)
                PyErr_Format(PyExc_ValueError, "net %zd: macro %zd out of range", k, i);
            else if (self->slot_of[i] == k)
                PyErr_Format(PyExc_ValueError, "net %zd: macro %zd twice", k, i);
            else {
                self->slot_of[i] = k;
                self->nets_at[i + 1]++;
                mem[total + t] = i;
            }
        }
        Py_DECREF(net);
        if (PyErr_Occurred())
            goto done;
        total += n;
        self->net_at[k + 1] = total;
    }
    for (Py_ssize_t i = 0; i < self->count; i++) {
        self->slot_of[i] = -1;
        self->nets_at[i + 1] += self->nets_at[i];
    }
    /* each macro's nets ascending: fill by net, advancing a cursor per macro */
    self->nets_of = malloc((size_t)(total ? total : 1) * sizeof(Py_ssize_t));
    if (self->nets_of == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(self->scratch, self->nets_at, (size_t)self->count * sizeof(Py_ssize_t));
    for (Py_ssize_t k = 0; k < n_nets; k++)
        for (Py_ssize_t t = self->net_at[k]; t < self->net_at[k + 1]; t++)
            self->nets_of[self->scratch[self->members[t]]++] = k;
    ok = 1;
done:
    Py_DECREF(nets);
    return ok ? 0 : -1;
}

/* Copies a buffer of 2 * count doubles; -1 with an exception set. */
static int
read_xy(PyObject *obj, Py_ssize_t count, double **out, const char *what)
{
    Py_buffer view;
    if (get_doubles(obj, &view, what) < 0)
        return -1;
    int ok = view.len == 2 * count * (Py_ssize_t)sizeof(double);
    if (!ok)
        PyErr_Format(PyExc_ValueError, "%s must hold 2 doubles per macro", what);
    else if ((*out = malloc((size_t)(count ? 2 * count : 1) * sizeof(double))) == NULL)
        ok = !PyErr_NoMemory();
    else
        memcpy(*out, view.buf, (size_t)view.len);
    PyBuffer_Release(&view);
    return ok ? 0 : -1;
}

static PyObject *
PlacementStore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"width", "height", "min_cell_x", "min_cell_y", "p", "q",
                             "halves", "centers", "nets", "rect", NULL};
    double width, height, min_x, min_y;
    int p, q;
    PyObject *halves, *centers, *nets, *rect;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "ddddiiOOOO:PlacementStore", kwlist,
                                     &width, &height, &min_x, &min_y, &p, &q, &halves,
                                     &centers, &nets, &rect))
        return NULL;
    if (p < 0 || q < 0 || p >= 30 || q >= 30) {
        PyErr_SetString(PyExc_ValueError, "grid exponents out of range");
        return NULL;
    }
    if (!PyType_Check(rect) || !PyType_IsSubtype((PyTypeObject *)rect, &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError, "rect must be a subtype of tuple");
        return NULL;
    }
    Py_buffer view;
    if (get_doubles(centers, &view, "centers") < 0)
        return NULL;
    Py_ssize_t count = view.len / (Py_ssize_t)(2 * sizeof(double));
    PyBuffer_Release(&view);

    PlacementStore *self = (PlacementStore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->index = (FootprintIndex *)PyObject_CallFunction(
        (PyObject *)&FootprintIndexType, "ndddd", count, width, height, min_x, min_y);
    if (self->index == NULL)
        goto fail;
    Py_INCREF(rect);
    self->rect_type = (PyTypeObject *)rect;
    self->count = count;
    self->width = width;
    self->height = height;
    self->cells_x = (Py_ssize_t)1 << p;
    self->cells_y = (Py_ssize_t)1 << q;
    size_t n = count ? (size_t)count : 1;
    self->partners = calloc(n, sizeof(Bucket));
    self->slot_of = malloc(n * sizeof(Py_ssize_t));
    self->scratch = malloc(n * sizeof(Py_ssize_t));
    self->meets = malloc(4 * n * sizeof(double));
    if (!self->partners || !self->slot_of || !self->scratch || !self->meets) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < count; i++)
        self->slot_of[i] = -1;
    if (read_xy(halves, count, &self->half, "halves") < 0
        || read_xy(centers, count, &self->center, "centers") < 0
        || read_nets(self, nets) < 0)
        goto fail;
    for (Py_ssize_t i = 0; i < count; i++) {
        const double *c = self->center + 2 * i, *h = self->half + 2 * i;
        const double box[4] = {c[0] - h[0], c[1] - h[1], c[0] + h[0], c[1] + h[1]};
        if (index_put(self->index, i, box) < 0)
            goto fail;
    }
    for (Py_ssize_t k = 0; k < self->n_nets; k++)
        self->net_bb[k] = net_box(self, k);
    /* every pair enters as (i, j) in ascending order, as from a scan over
     * all pairs */
    for (Py_ssize_t i = 0; i < count; i++)
        if (update_pairs(self, i) < 0)
            goto fail;
    return (PyObject *)self;
fail:
    Py_DECREF(self);
    return NULL;
}

static PyObject *
PlacementStore_move(PlacementStore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "move expected 3 arguments, got %zd", nargs);
        return NULL;
    }
    Py_ssize_t i = index_key(self->index, args[0]);
    if (i < 0)
        return NULL;
    double x = PyFloat_AsDouble(args[1]), y = PyFloat_AsDouble(args[2]);
    if (PyErr_Occurred())
        return NULL;
    const double *h = self->half + 2 * i;
    const double box[4] = {x - h[0], y - h[1], x + h[0], y + h[1]};
    if (index_put(self->index, i, box) < 0)
        return NULL;
    self->center[2 * i] = x;
    self->center[2 * i + 1] = y;
    for (Py_ssize_t t = self->nets_at[i]; t < self->nets_at[i + 1]; t++)
        self->net_bb[self->nets_of[t]] = net_box(self, self->nets_of[t]);
    Py_ssize_t n = update_pairs(self, i);
    if (n < 0)
        return NULL;

    PyObject *out = PyList_New(0);
    for (Py_ssize_t t = 0; out != NULL && t < n; t++) {
        Py_ssize_t r[4];
        int snapped = snap_box(self->meets + 4 * t, self->width, self->height,
                               self->cells_x, self->cells_y, r);
        PyObject *rect = NULL;
        if (snapped > 0 && (rect = self->rect_type->tp_alloc(self->rect_type, 4)) != NULL) {
            for (int c = 0; c < 4; c++) {
                PyObject *v = PyLong_FromSsize_t(r[c]);
                if (v == NULL) {
                    Py_CLEAR(rect);
                    break;
                }
                PyTuple_SET_ITEM(rect, c, v);
            }
        }
        if (snapped < 0 || (snapped > 0 && (rect == NULL || PyList_Append(out, rect) < 0)))
            Py_CLEAR(out);
        Py_XDECREF(rect);
    }
    return out;
}

static PyObject *
PlacementStore_pins(PlacementStore *self, PyObject *arg)
{
    Py_ssize_t i = index_key(self->index, arg), len = 0;
    if (i < 0)
        return NULL;
    const Py_ssize_t *net_at = self->net_at;
    for (Py_ssize_t t = self->nets_at[i]; t < self->nets_at[i + 1]; t++)
        len += 2 * (net_at[self->nets_of[t] + 1] - net_at[self->nets_of[t]]);
    PyObject *bytes = PyBytes_FromStringAndSize(NULL, len * (Py_ssize_t)sizeof(double));
    if (bytes == NULL)
        return NULL;
    double *out = (double *)PyBytes_AS_STRING(bytes);
    for (Py_ssize_t t = self->nets_at[i]; t < self->nets_at[i + 1]; t++) {
        Py_ssize_t k = self->nets_of[t], n = net_at[k + 1] - net_at[k];
        const Py_ssize_t *mem = self->members + net_at[k];
        double *head = out;
        *out++ = (double)n;
        out++;
        for (Py_ssize_t u = 0; u < n; u++) {
            if (mem[u] == i) {
                head[1] = (double)u;
            } else {
                *out++ = self->center[2 * mem[u]];
                *out++ = self->center[2 * mem[u] + 1];
            }
        }
    }
    PyObject *pins = PyObject_CallFunction(array_type, "CO", 'd', bytes);
    Py_DECREF(bytes);
    return pins;
}

static PyObject *
PlacementStore_totals(PlacementStore *self, PyObject *unused)
{
    /* the two sums, each left to right from 0 (int 0 with nothing to sum),
     * in one loop, so that the two chains of dependent adds overlap */
    const double *bb = self->net_bb, *area = self->area;
    Py_ssize_t n_bb = self->n_nets, n_area = self->n_slots, k = 0;
    double sum_bb = 0.0, sum_area = 0.0;
    for (; k < n_bb && k < n_area; k++) {
        sum_bb += bb[k];
        sum_area += area[k];
    }
    for (Py_ssize_t t = k; t < n_bb; t++)
        sum_bb += bb[t];
    for (Py_ssize_t t = k; t < n_area; t++)
        sum_area += area[t];
    PyObject *a = n_bb ? PyFloat_FromDouble(sum_bb) : PyLong_FromLong(0);
    PyObject *b = self->n_live ? PyFloat_FromDouble(sum_area) : PyLong_FromLong(0);
    PyObject *out = a && b ? PyTuple_Pack(2, a, b) : NULL;
    Py_XDECREF(a);
    Py_XDECREF(b);
    return out;
}

static PyObject *
PlacementStore_net_lengths(PlacementStore *self, PyObject *unused)
{
    PyObject *out = PyList_New(self->n_nets);
    for (Py_ssize_t k = 0; out != NULL && k < self->n_nets; k++) {
        PyObject *v = PyFloat_FromDouble(self->net_bb[k]);
        if (v == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, k, v);
    }
    return out;
}

static PyObject *
PlacementStore_pairs(PlacementStore *self, PyObject *unused)
{
    PyObject *out = PyList_New(0);
    for (Py_ssize_t sl = 0; out != NULL && sl < self->n_slots; sl++) {
        if (self->pair[2 * sl] < 0)
            continue;
        PyObject *p = Py_BuildValue("(nnd)", self->pair[2 * sl], self->pair[2 * sl + 1],
                                    self->area[sl]);
        if (p == NULL || PyList_Append(out, p) < 0)
            Py_CLEAR(out);
        Py_XDECREF(p);
    }
    return out;
}

static PyMethodDef PlacementStore_methods[] = {
    {"move", (PyCFunction)(void (*)(void))PlacementStore_move, METH_FASTCALL,
     "move(i, x, y) -> list[rect]\n\n"
     "Center macro i at (x, y): store its footprint, recompute its nets' boxes\n"
     "and bring its overlap pairs up to date; returns the snapped cells of\n"
     "each of its meets with another footprint, in index order."},
    {"pins", (PyCFunction)PlacementStore_pins, METH_O,
     "pins(i) -> array('d')\n\n"
     "The nets of macro i packed for score_candidate, in net order."},
    {"totals", (PyCFunction)PlacementStore_totals, METH_NOARGS,
     "totals() -> (netlength, overlap)\n\n"
     "The sums of the net boxes in net order and of the live pairs' areas in\n"
     "the order the pairs entered; int 0 where there is nothing to sum."},
    {"net_lengths", (PyCFunction)PlacementStore_net_lengths, METH_NOARGS,
     "net_lengths() -> list[float]\n\nThe bounding-box length of each net."},
    {"pairs", (PyCFunction)PlacementStore_pairs, METH_NOARGS,
     "pairs() -> list[(i, j, area)]\n\n"
     "The live overlap pairs, i < j, in the order they entered."},
    {NULL}
};

static PyMemberDef PlacementStore_members[] = {
    {"footprints", T_OBJECT_EX, offsetof(PlacementStore, index), READONLY,
     "the macros' footprints, a FootprintIndex keyed by macro index; only move\n"
     "may change it"},
    {NULL}
};

static PyTypeObject PlacementStoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "stepplace._fieldcore.PlacementStore",
    .tp_doc = "PlacementStore(width, height, min_cell_x, min_cell_y, p, q, halves,\n"
              "               centers, nets, rect)\n\n"
              "The placer's placement of the macros 0 .. count - 1 over a width x\n"
              "height area: halves and centers hold hx, hy and x, y per macro, nets\n"
              "the members of each net as macro indices, footprints their boxes in\n"
              "a FootprintIndex with cells of at least min_cell_x by min_cell_y.\n"
              "move snaps meets to a 2**p x 2**q grid and returns them as rect\n"
              "instances.  stepplace.placer.PlacementStore is its Python reference.",
    .tp_basicsize = sizeof(PlacementStore),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PlacementStore_new,
    .tp_dealloc = (destructor)PlacementStore_dealloc,
    .tp_methods = PlacementStore_methods,
    .tp_members = PlacementStore_members,
};

static PyMethodDef fieldcore_functions[] = {
    {"score_candidate", (PyCFunction)(void (*)(void))score_candidate, METH_FASTCALL,
     "score_candidate(core, x, y, hx, hy, width, height, beta, pins, footprints,\n"
     "                skip, factor, blockages, weight) -> float\n\n"
     "Score of the candidate centered at (x, y) with half-sizes hx, hy:\n"
     "the field sum of core under the footprint snapped to a width x height\n"
     "area, plus the length of each net packed in pins, plus factor times\n"
     "the overlap circumference against every box of the FootprintIndex\n"
     "footprints but key skip's, plus weight times the overlap area with\n"
     "each box of blockages (boxes are x1, y1, x2, y2); see\n"
     "stepplace.placer.py_candidate_score."},
    {NULL}
};

static PyModuleDef fieldcoremodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "stepplace._fieldcore",
    .m_doc = "C accelerator for the step-function cost field and candidate scoring.",
    .m_size = -1,
    .m_methods = fieldcore_functions,
};

PyMODINIT_FUNC
PyInit__fieldcore(void)
{
    PyObject *mod;
    if (PyType_Ready(&FieldCoreType) < 0 || PyType_Ready(&FootprintIndexType) < 0
        || PyType_Ready(&PlacementStoreType) < 0)
        return NULL;
    PyObject *array_mod = PyImport_ImportModule("array");
    if (array_mod == NULL)
        return NULL;
    array_type = PyObject_GetAttrString(array_mod, "array");
    Py_DECREF(array_mod);
    if (array_type == NULL)
        return NULL;
    mod = PyModule_Create(&fieldcoremodule);
    if (!mod)
        return NULL;
    Py_INCREF(&FieldCoreType);
    if (PyModule_AddObject(mod, "FieldCore", (PyObject *)&FieldCoreType) < 0) {
        Py_DECREF(&FieldCoreType);
        Py_DECREF(mod);
        return NULL;
    }
    Py_INCREF(&FootprintIndexType);
    if (PyModule_AddObject(mod, "FootprintIndex", (PyObject *)&FootprintIndexType) < 0) {
        Py_DECREF(&FootprintIndexType);
        Py_DECREF(mod);
        return NULL;
    }
    Py_INCREF(&PlacementStoreType);
    if (PyModule_AddObject(mod, "PlacementStore", (PyObject *)&PlacementStoreType) < 0) {
        Py_DECREF(&PlacementStoreType);
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
