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
 * once in 4425 inflates.
 *
 * Single writer: increase/inflate require exclusive access; cost leaves the
 * coefficients unchanged but records last_touched, so concurrent readers are
 * safe while no mutation is in flight.
 *
 * FootprintIndex holds the placer's macro footprints by macro index,
 * bucketed in a grid of cells, so an overlap query tests only the boxes near
 * it.  The module function score_candidate scores one candidate move of the
 * placer (field sum, net terms, overlap penalty against the index, and
 * blockage term) bit for bit as the placer's Python reference does (build
 * with -ffp-contract=off so no multiply-add is fused); ordered_sum adds
 * floats as Python 3.11's builtin sum does.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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
     * element's squared norm */
    double *C = self->coef;
    Py_ssize_t m = self->m;
    double v = value / self->scale;
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
    Py_ssize_t last = self->n * self->m - 1; /* the constant element */
    if (s < FOLD_BELOW) {
        for (Py_ssize_t k = 0; k < last; k++)
            self->coef[k] *= s;
        self->coef[last] *= self->scale;
        self->scale = 1.0;
    }
    else {
        self->scale = s;
        self->coef[last] /= rho; /* it never decays */
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

/* The keys of one cell, in no particular order. */
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

static PyObject *
FootprintIndex_put(FootprintIndex *self, PyObject *args)
{
    PyObject *key_obj;
    double box[4];
    if (!PyArg_ParseTuple(args, "O(dddd):put", &key_obj, &box[0], &box[1], &box[2], &box[3]))
        return NULL;
    Py_ssize_t key = index_key(self, key_obj), c[4];
    if (key < 0)
        return NULL;
    if (!(isfinite(box[0]) && isfinite(box[1]) && isfinite(box[2]) && isfinite(box[3]))) {
        PyErr_SetString(PyExc_ValueError, "footprint must be finite");
        return NULL;
    }
    /* room first, so a failed allocation leaves the index as it was */
    box_cells(self, box, c);
    for (Py_ssize_t i = c[0]; i <= c[2]; i++) {
        for (Py_ssize_t j = c[1]; j <= c[3]; j++) {
            Bucket *b = &self->cells[i * self->rows + j];
            if (b->len == b->cap) {
                Py_ssize_t cap = b->cap ? 2 * b->cap : 4;
                Py_ssize_t *keys = realloc(b->keys, (size_t)cap * sizeof(Py_ssize_t));
                if (keys == NULL)
                    return PyErr_NoMemory();
                b->keys = keys;
                b->cap = cap;
            }
        }
    }
    double *old = self->boxes + 4 * key;
    if (!isnan(old[0])) {
        Py_ssize_t o[4];
        box_cells(self, old, o);
        for (Py_ssize_t i = o[0]; i <= o[2]; i++) {
            for (Py_ssize_t j = o[1]; j <= o[3]; j++) {
                Bucket *b = &self->cells[i * self->rows + j];
                Py_ssize_t t = 0;
                while (b->keys[t] != key)
                    t++;
                b->keys[t] = b->keys[--b->len];
            }
        }
    }
    for (Py_ssize_t i = c[0]; i <= c[2]; i++) {
        for (Py_ssize_t j = c[1]; j <= c[3]; j++) {
            Bucket *b = &self->cells[i * self->rows + j];
            b->keys[b->len++] = key;
        }
    }
    memcpy(old, box, sizeof(box));
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

    /* placer.snap_to_grid: the footprint clipped to the area, covered by cells */
    double sx1 = py_max(fx1, 0.0), sy1 = py_max(fy1, 0.0);
    double sx2 = py_min(fx2, width), sy2 = py_min(fy2, height);
    if (sx1 < sx2 && sy1 < sy2) {
        double cx = width / (double)core->n, cy = height / (double)core->m;
        double fa1 = floor(sx1 / cx), fb1 = floor(sy1 / cy);
        double fa2 = ceil(sx2 / cx), fb2 = ceil(sy2 / cy);
        /* rules out NaN and anything a cast could not hold */
        if (!(0.0 <= fa1 && fa1 <= fa2 && fa2 <= (double)core->n
              && 0.0 <= fb1 && fb1 <= fb2 && fb2 <= (double)core->m)) {
            PyErr_SetString(PyExc_ValueError, "footprint snaps outside the grid");
            goto release_all;
        }
        Py_ssize_t a1 = (Py_ssize_t)fa1, b1 = (Py_ssize_t)fb1;
        Py_ssize_t a2 = (Py_ssize_t)fa2, b2 = (Py_ssize_t)fb2;
        if (a2 < a1 + 1)
            a2 = a1 + 1;
        if (b2 < b1 + 1)
            b2 = b1 + 1;
        if (check_rect(core, a1, b1, a2, b2) < 0)
            goto release_all;
        score = field_cost(core, a1, b1, a2, b2);
    }

    const double moving[2] = {x, y};
    if (add_net_terms(&score, moving, args[7], beta, pins.buf,
                      pins.len / (Py_ssize_t)sizeof(double)) < 0)
        goto release_all;

    /* placer.penalty: circumference of every positive-area meet, in key
     * order, so the same floats are added in the same order as by a scan
     * over every footprint */
    const double fp[4] = {fx1, fy1, fx2, fy2};
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

/* Builtin sum(values) as Python 3.11 computes it: from int 0, left to
 * right; while the sum is a float, float items are added as C doubles (3.12
 * compensates), and anything else goes through the number protocol. */
static PyObject *
ordered_sum(PyObject *module, PyObject *values)
{
    if (PyList_CheckExact(values)) {
        /* the common case, a list of floats, without the iterator */
        double f = 0.0;
        Py_ssize_t i = 0, n = PyList_GET_SIZE(values);
        for (; i < n && PyFloat_CheckExact(PyList_GET_ITEM(values, i)); i++)
            f += PyFloat_AS_DOUBLE(PyList_GET_ITEM(values, i));
        if (i == n)
            return n ? PyFloat_FromDouble(f) : PyLong_FromLong(0);
    }
    PyObject *it = PyObject_GetIter(values);
    if (it == NULL)
        return NULL;
    PyObject *acc = PyLong_FromLong(0), *item; /* the sum, or NULL while it is f */
    double f = 0.0;
    int failed = acc == NULL;
    while (!failed && (item = PyIter_Next(it)) != NULL) {
        if (acc == NULL) {
            if (PyFloat_CheckExact(item)) {
                f += PyFloat_AS_DOUBLE(item);
                Py_DECREF(item);
                continue;
            }
            acc = PyFloat_FromDouble(f);
        }
        PyObject *sum = acc != NULL ? PyNumber_Add(acc, item) : NULL;
        Py_DECREF(item);
        Py_XDECREF(acc);
        acc = NULL;
        if (sum == NULL) {
            failed = 1;
        } else if (PyFloat_CheckExact(sum)) {
            f = PyFloat_AS_DOUBLE(sum);
            Py_DECREF(sum);
        } else {
            acc = sum;
        }
    }
    Py_DECREF(it);
    if (failed || PyErr_Occurred()) {
        Py_XDECREF(acc);
        return NULL;
    }
    return acc != NULL ? acc : PyFloat_FromDouble(f);
}

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
    {"ordered_sum", (PyCFunction)ordered_sum, METH_O,
     "ordered_sum(values) -> float | int\n\n"
     "Builtin sum of an iterable as Python 3.11 adds floats: left to right,\n"
     "0 when there is nothing to sum; see stepplace.stepfield.py_ordered_sum."},
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
    if (PyType_Ready(&FieldCoreType) < 0 || PyType_Ready(&FootprintIndexType) < 0)
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
    return mod;
}
