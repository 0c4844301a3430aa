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
 * over the scale exceeds FOLD_ABOVE, so that no stored coefficient and no
 * read overflows where the field's values do not.
 *
 * Single writer: increase/inflate require exclusive access; cost leaves the
 * coefficients unchanged but records last_touched, so concurrent readers are
 * safe while no mutation is in flight.
 *
 * PlacementStore is the placer's placement, its only copy: centers, bounds,
 * half-sizes, nets, net boxes, live overlap pairs and footprints, the
 * footprints bucketed in a grid of cells (a FootprintIndex) so that an
 * overlap query tests only the boxes near it.  It is built on the cost
 * field it scores against and holds the area's keep-outs with their weight.
 * Its score method scores one candidate from what the store holds (field
 * sum, net terms, overlap penalty against the other footprints, and keep-out
 * term).  A whole round of the placer is one call of its round method: it
 * draws the macro as rng.randrange does and the candidates as proposals does,
 * from the macro's center and bounds, calls the placer's scoring hook once
 * per candidate, picks the winner as stepplace.placer.first_min does,
 * commits it as move does, and calls the field's inflate once.  A commit is
 * one body, shared by move and round: it moves the macro and grows the
 * field under each snapped meet with the field core's increase body.  The
 * hook gets the store itself; it is the module function candidate_score
 * where the core loaded, which runs the score body on a C store with no
 * Python frame between.  The kernel under it decides by arithmetic where
 * it can, not by branches: a level of axis_components writes both of its
 * possible components and counts the nonzero ones, index_hits stores each
 * key it tests and counts the ones that meet, and field_cost sums four rows
 * at a time, each in column order, joining the total in row order.
 *
 * FreeSpace is the legalizer's: the footprints it has placed, in a
 * FootprintIndex, and the area's keep-outs.  Its nearest_free builds a
 * search's lattices and runs the ring search of placer._nearest_free over
 * them, with the same cursors and jumps, so it finds the same point; both
 * take lattices whose footprints are all non-empty (netmodel.check_placeable).
 *
 * All of these do the float operations of the placer's Python reference in
 * its order, so they return its bits (build with -ffp-contract=off so no
 * multiply-add is fused).
 *
 * The module function repr_line writes the line of floats and ints that
 * every file writer of stepplace.io_cli writes, with the bytes repr writes;
 * it finds most floats' shortest digits in 128-bit integer arithmetic
 * instead of the interpreter's big-number dtoa.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#define MAX_AXIS_COMPONENTS 64 /* 2*exponent + 1; exponents are capped well below */
#define FOLD_BELOW 0x1p-32     /* smallest scale kept apart from the coefficients */
/* Largest |value / scale| an increase stores while the scale is below 1;
 * above it the scale is folded in first.  An increase adds at most
 * |value / scale| to a stored coefficient (each axis factor, inner product
 * times reciprocal squared norm, is at most 1).  Until the next fold the
 * stored constant coefficient grows through inflates by at most
 * 1 / FOLD_BELOW = 2^32.  A read multiplies the stored coefficients by inner
 * products whose magnitudes sum to below 2^31 per axis (exponent p < 30:
 * t - s <= 2^p for the all-ones element, at most two block elements of at
 * most 2^a at each level a < p), so below 2^62 in all.  So what k
 * increments since the last fold add to a read (beside the field's own
 * values at that fold) stays below k * 2^(800 + 32 + 62), which is finite
 * for every k below 2^129. */
#define FOLD_ABOVE 0x1p800

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
 * returns the count.  The all-ones component is always last.  Each level
 * writes both of its possible components, the block holding s and the one
 * holding t, and keeps each one whose inner product is not zero, without a
 * branch: for s = 0 the first is the empty block before the axis, and where
 * both are one block the second is zero. */
static int
axis_components(Py_ssize_t s, Py_ssize_t t, int p, Py_ssize_t n,
                Py_ssize_t *ids, double *stars, double *inv_norms)
{
    int cnt = 0;
    for (int a = 0; a < p; a++) {
        Py_ssize_t span2 = (Py_ssize_t)2 << a; /* support size = squared norm */
        double inv = 1.0 / (double)span2;
        Py_ssize_t base = n - (n >> a);
        /* ceil(s / span2) and ceil(t / span2): s, t >= 0, so a shift */
        Py_ssize_t ks = (s + span2 - 1) >> (a + 1);
        Py_ssize_t kt = (t + span2 - 1) >> (a + 1);
        /* block k spans [(k - 1) * span2, k * span2), its +1 half first;
         * the inner product with [s, ...) is -min(s - lo, hi - s) */
        Py_ssize_t lo = (ks - 1) * span2, hi = ks * span2;
        Py_ssize_t d1 = s - lo, d2 = hi - s, e1 = t - lo, e2 = hi - t;
        Py_ssize_t v = (kt == ks) * (e1 < e2 ? e1 : e2) - (d1 < d2 ? d1 : d2);
        ids[cnt] = base + ks - 1;
        inv_norms[cnt] = inv;
        stars[cnt] = (double)v;
        cnt += v != 0;
        lo = (kt - 1) * span2;
        hi = kt * span2;
        e1 = t - lo;
        e2 = hi - t;
        v = (kt != ks) * (e1 < e2 ? e1 : e2);
        ids[cnt] = base + kt - 1;
        inv_norms[cnt] = inv;
        stars[cnt] = (double)v;
        cnt += v != 0;
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

/* Adds value to every cell of a rectangle that passed check_rect; records
 * last_touched. */
static void
field_increase(FieldCore *self, Py_ssize_t a1, Py_ssize_t b1, Py_ssize_t a2, Py_ssize_t b2,
               double value)
{
    Py_ssize_t ix[MAX_AXIS_COMPONENTS], iy[MAX_AXIS_COMPONENTS];
    double sx[MAX_AXIS_COMPONENTS], sy[MAX_AXIS_COMPONENTS];
    double nx[MAX_AXIS_COMPONENTS], ny[MAX_AXIS_COMPONENTS];
    int kx = axis_components(a1, a2, self->p, self->n, ix, sx, nx);
    int ky = axis_components(b1, b2, self->q, self->m, iy, sy, ny);

    /* expansion coefficients take the projection: inner product over the
     * element's squared norm; a value too large over the scale takes the
     * scale folded in first */
    double v = value / self->scale;
    if (self->scale < 1.0 && fabs(v) > FOLD_ABOVE) {
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
    field_increase(self, a1, b1, a2, b2, value);
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

    /* four rows at a time, each summing its columns in order, and joining
     * the total in row order */
    const double *C = self->coef;
    Py_ssize_t m = self->m;
    double tot = 0.0;
    int i = 0;
    for (; i + 4 <= kx; i += 4) {
        const double *r0 = C + ix[i] * m, *r1 = C + ix[i + 1] * m;
        const double *r2 = C + ix[i + 2] * m, *r3 = C + ix[i + 3] * m;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (int j = 0; j < ky; j++) {
            Py_ssize_t col = iy[j];
            double w = sy[j];
            s0 += r0[col] * w;
            s1 += r1[col] * w;
            s2 += r2[col] * w;
            s3 += r3[col] * w;
        }
        tot += s0 * sx[i];
        tot += s1 * sx[i + 1];
        tot += s2 * sx[i + 2];
        tot += s3 * sx[i + 3];
    }
    for (; i < kx; i++) {
        const double *row = C + ix[i] * m;
        double sub = 0.0;
        for (int j = 0; j < ky; j++)
            sub += row[iy[j]] * sy[j];
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

/* One net's pins as a candidate move sees them: the centers of its members,
 * with macro `moving`'s pin at `at` (no pin moves where `moving` is -1). */
typedef struct {
    const Py_ssize_t *mem;
    Py_ssize_t n;
    const double *center; /* x, y per macro */
    Py_ssize_t moving;
    const double *at;
} NetPins;

/* Coordinate `axis` of pin t. */
static inline double
pin_at(NetPins p, Py_ssize_t t, int axis)
{
    return p.mem[t] == p.moving ? p.at[axis] : p.center[2 * p.mem[t] + axis];
}

/* First largest and first smallest coordinate in pin order, as Python's
 * max() and min() pick them. */
static void
axis_extremes(NetPins p, int axis, double *hi, double *lo)
{
    double h = pin_at(p, 0, axis), l = h;
    for (Py_ssize_t t = 1; t < p.n; t++) {
        double v = pin_at(p, t, axis);
        if (v > h)
            h = v;
        if (v < l)
            l = v;
    }
    *hi = h;
    *lo = l;
}

/* netmodel.bb_netlength: ((max x - min x) + max y) - min y */
static double
bb_length(NetPins p)
{
    double hx, lx, hy, ly;
    axis_extremes(p, 0, &hx, &lx);
    axis_extremes(p, 1, &hy, &ly);
    return hx - lx + hy - ly;
}

/* netmodel._lse_axis */
static double
lse_axis(NetPins p, int axis, double alpha)
{
    double hi, lo, sp = 0.0, sn = 0.0;
    axis_extremes(p, axis, &hi, &lo);
    for (Py_ssize_t t = 0; t < p.n; t++) {
        double v = pin_at(p, t, axis);
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
net_length(NetPins p, PyObject *beta_obj, double beta, double *out)
{
    if (beta_obj == Py_None) {
        *out = bb_length(p);
        return 0;
    }
    if (p.n == 2) {
        if (!(beta > 0.0)) {
            PyErr_SetString(PyExc_ValueError, "beta must be positive");
            return -1;
        }
        double dx = pin_at(p, 0, 0) - pin_at(p, 1, 0);
        double dy = pin_at(p, 0, 1) - pin_at(p, 1, 1);
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
    *out = lse_axis(p, 0, alpha) + lse_axis(p, 1, alpha);
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

/* Whether boxes a and b, x1, y1, x2, y2 each, meet with positive area
 * (netmodel.overlaps). */
static inline int
boxes_meet(const double *a, const double *b)
{
    return (py_max(a[0], b[0]) < py_min(a[2], b[2])) & (py_max(a[1], b[1]) < py_min(a[3], b[3]));
}

/* Keys in no particular order: one cell's, or the slots of one macro's pairs. */
typedef struct {
    Py_ssize_t *keys;
    Py_ssize_t len, cap;
} Bucket;

/* Footprint boxes keyed by macro index, bucketed in a grid of cells, so that
 * an overlap query tests only the boxes near it; netmodel.BucketGrid is its
 * Python counterpart. */
typedef struct {
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
 * query; returns their count.  Two such boxes share the cell of a common
 * point, and the clamp at the border is monotone, so the cells the query's
 * closed extent touches hold them. */
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
                /* stored, then kept by the meet test; fewer than count keys
                 * come before it, so the slot is in the array */
                idx->found[n] = k;
                n += boxes_meet(query, idx->boxes + 4 * k);
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

/* Sets idx up for the keys 0 .. count - 1 over a width x height area, in
 * cells at least min_x by min_y and at most about count of them; -1 with
 * MemoryError set where an allocation fails (index_free still frees it). */
static int
index_init(FootprintIndex *idx, Py_ssize_t count, double width, double height,
           double min_x, double min_y)
{
    Py_ssize_t side = (Py_ssize_t)sqrt((double)count);
    while (side * side > count)
        side--;
    while ((side + 1) * (side + 1) <= count)
        side++;
    side = side > 1 ? side : 1;
    double fx = floor(width / min_x), fy = floor(height / min_y);
    idx->cols = fx < 1.0 ? 1 : fx < (double)side ? (Py_ssize_t)fx : side;
    idx->rows = fy < 1.0 ? 1 : fy < (double)side ? (Py_ssize_t)fy : side;
    idx->cell_x = width / (double)idx->cols;
    idx->cell_y = height / (double)idx->rows;
    size_t n = count ? (size_t)count : 1;
    idx->cells = calloc((size_t)(idx->cols * idx->rows), sizeof(Bucket));
    idx->boxes = malloc(4 * n * sizeof(double));
    idx->mark = calloc(n, sizeof(Py_ssize_t));
    idx->found = malloc(n * sizeof(Py_ssize_t));
    if (!idx->cells || !idx->boxes || !idx->mark || !idx->found) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t k = 0; k < 4 * count; k++)
        idx->boxes[k] = NAN;
    return 0;
}

static void
index_free(FootprintIndex *idx)
{
    for (Py_ssize_t c = 0; idx->cells != NULL && c < idx->cols * idx->rows; c++)
        free(idx->cells[c].keys);
    free(idx->cells);
    free(idx->boxes);
    free(idx->mark);
    free(idx->found);
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

/* The key obj names, one of 0 .. count - 1, or -1 with an exception set
 * that calls it a `what` out of range for count `of`. */
static Py_ssize_t
index_key(PyObject *obj, Py_ssize_t count, const char *what, const char *of)
{
    Py_ssize_t k = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    if (k == -1 && PyErr_Occurred())
        return -1;
    if (k < 0 || k >= count) {
        PyErr_Format(PyExc_ValueError, "%s %zd out of range for %zd %s", what, k, count, of);
        return -1;
    }
    return k;
}

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

/* The placer's placement, as stepplace.placer.PlacementStore keeps it in
 * Python: the cost field it scores against, the area's keep-outs with their
 * weight, each macro's center, half-sizes and footprint, the nets as index
 * arrays with their bounding-box lengths, and the live overlap pairs with
 * their areas in the order the pairs entered. */
typedef struct {
    PyObject_HEAD
    PyObject *field;               /* the CostField, and its core */
    FieldCore *core;
    FootprintIndex index;          /* the footprints, keyed by macro index */
    Py_ssize_t count;              /* macros */
    double *half, *center;         /* hx, hy and x, y per macro */
    double *bound;                 /* x_min, x_max, y_min, y_max per macro */
    double width, height;
    Py_ssize_t n_blk;              /* keep-outs */
    double *blk, weight;           /* x1, y1, x2, y2 per keep-out; its weight */
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

/* The pins of net k, with macro i's pin at `at`. */
static inline NetPins
net_pins(const PlacementStore *s, Py_ssize_t k, Py_ssize_t i, const double *at)
{
    NetPins p = {s->members + s->net_at[k], s->net_at[k + 1] - s->net_at[k], s->center, i, at};
    return p;
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
    FootprintIndex *idx = &s->index;
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
    index_free(&self->index);
    for (Py_ssize_t i = 0; self->partners != NULL && i < self->count; i++)
        free(self->partners[i].keys);
    free(self->partners);
    free(self->half);
    free(self->center);
    free(self->bound);
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
    free(self->blk);
    Py_XDECREF(self->core);
    Py_XDECREF(self->field);
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

/* Copies obj, a C-contiguous buffer of doubles, `per` to an item, to a new
 * array *out.  *count is its number of items: where it is -1 the buffer sets
 * it, else the buffer must hold that many.  -1 with an exception naming
 * `what` set. */
static int
read_doubles(PyObject *obj, Py_ssize_t per, const char *item, Py_ssize_t *count,
             double **out, const char *what)
{
    Py_buffer view;
    if (PyObject_GetBuffer(obj, &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    int ok = 0;
    Py_ssize_t n = view.len / (Py_ssize_t)sizeof(double);
    if (view.itemsize != sizeof(double) || view.format == NULL
        || strcmp(view.format, "d") != 0)
        PyErr_Format(PyExc_TypeError, "%s must be a buffer of doubles", what);
    else if (n % per || (*count >= 0 && n != per * *count))
        PyErr_Format(PyExc_ValueError, "%s must hold %zd doubles per %s", what, per, item);
    else if ((*out = malloc((size_t)(n ? n : 1) * sizeof(double))) == NULL)
        PyErr_NoMemory();
    else {
        memcpy(*out, view.buf, (size_t)view.len);
        *count = n / per;
        ok = 1;
    }
    PyBuffer_Release(&view);
    return ok ? 0 : -1;
}

/* Checks the sizes, copies the keep-outs (x1, y1, x2, y2 each) to *blk, *n_blk of
 * them, and index_init's idx; -1 with an exception set (the caller frees). */
static int
space_init(FootprintIndex *idx, Py_ssize_t count, double width, double height,
           double min_x, double min_y, PyObject *blockages, Py_ssize_t *n_blk, double **blk)
{
    if (!(width > 0.0 && height > 0.0 && min_x > 0.0 && min_y > 0.0 && isfinite(width)
          && isfinite(height) && isfinite(min_x) && isfinite(min_y))) {
        PyErr_SetString(PyExc_ValueError,
                        "area sides and cell sizes must be positive and finite");
        return -1;
    }
    *n_blk = -1;
    if (read_doubles(blockages, 4, "box", n_blk, blk, "blockages") < 0)
        return -1;
    return index_init(idx, count, width, height, min_x, min_y);
}

static PyObject *
PlacementStore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"field", "width", "height", "min_cell_x", "min_cell_y",
                             "halves", "centers", "bounds", "nets", "blockages",
                             "blockage_weight", NULL};
    double width, height, min_x, min_y, weight;
    PyObject *field, *halves, *centers, *bounds, *nets, *blockages;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OddddOOOOOd:PlacementStore", kwlist,
                                     &field, &width, &height, &min_x, &min_y, &halves,
                                     &centers, &bounds, &nets, &blockages, &weight))
        return NULL;
    PyObject *core = PyObject_GetAttrString(field, "core");
    if (core == NULL && PyErr_ExceptionMatches(PyExc_AttributeError))
        PyErr_Clear();
    if (core == NULL ? !PyErr_Occurred() : !PyObject_TypeCheck(core, &FieldCoreType))
        PyErr_Format(PyExc_TypeError,
                     "field must be a CostField on the C core (its core a FieldCore), "
                     "got %s%.200s", core ? "a field whose core is a " : "",
                     Py_TYPE(core ? core : field)->tp_name);
    if (PyErr_Occurred()) {
        Py_XDECREF(core);
        return NULL;
    }

    PlacementStore *self = (PlacementStore *)type->tp_alloc(type, 0);
    if (self == NULL) {
        Py_DECREF(core);
        return NULL;
    }
    Py_INCREF(field);
    self->field = field;
    self->core = (FieldCore *)core;
    self->width = width;
    self->height = height;
    self->weight = weight;
    self->count = -1;
    if (read_doubles(centers, 2, "macro", &self->count, &self->center, "centers") < 0
        || read_doubles(halves, 2, "macro", &self->count, &self->half, "halves") < 0
        || read_doubles(bounds, 4, "macro", &self->count, &self->bound, "bounds") < 0
        || space_init(&self->index, self->count, width, height, min_x, min_y, blockages,
                      &self->n_blk, &self->blk) < 0)
        goto fail;
    Py_ssize_t count = self->count;
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
    if (read_nets(self, nets) < 0)
        goto fail;
    for (Py_ssize_t i = 0; i < count; i++) {
        const double *c = self->center + 2 * i, *h = self->half + 2 * i;
        const double box[4] = {c[0] - h[0], c[1] - h[1], c[0] + h[0], c[1] + h[1]};
        if (index_put(&self->index, i, box) < 0)
            goto fail;
    }
    for (Py_ssize_t k = 0; k < self->n_nets; k++)
        self->net_bb[k] = bb_length(net_pins(self, k, -1, NULL));
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

/* Commits macro i at (x, y), one round's commit: refuses a non-finite w
 * or footprint before anything moves, then stores the footprint,
 * recomputes its nets' boxes, brings its pairs up to date and grows the
 * field by w under each meet with another footprint (update_pairs leaves
 * them in s->meets in index order) snapped to the field's grid, with the
 * core's increase body.  0, or -1 with an exception set. */
static int
store_commit(PlacementStore *s, Py_ssize_t i, double x, double y, double w)
{
    if (!isfinite(w)) {
        PyErr_SetString(PyExc_ValueError, "increase value must be finite");
        return -1;
    }
    const double *h = s->half + 2 * i;
    const double box[4] = {x - h[0], y - h[1], x + h[0], y + h[1]};
    if (index_put(&s->index, i, box) < 0)
        return -1;
    s->center[2 * i] = x;
    s->center[2 * i + 1] = y;
    for (Py_ssize_t t = s->nets_at[i]; t < s->nets_at[i + 1]; t++) {
        Py_ssize_t k = s->nets_of[t];
        s->net_bb[k] = bb_length(net_pins(s, k, -1, NULL));
    }
    Py_ssize_t n = update_pairs(s, i);
    FieldCore *core = s->core;
    for (Py_ssize_t t = 0; t < n; t++) {
        Py_ssize_t r[4];
        int snapped = snap_box(s->meets + 4 * t, s->width, s->height, core->n, core->m, r);
        if (snapped < 0 || (snapped && check_rect(core, r[0], r[1], r[2], r[3]) < 0))
            return -1;
        if (snapped)
            field_increase(core, r[0], r[1], r[2], r[3], w);
    }
    return n < 0 ? -1 : 0;
}

static PyObject *
PlacementStore_move(PlacementStore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "move expected 4 arguments, got %zd", nargs);
        return NULL;
    }
    Py_ssize_t i = index_key(args[0], self->count, "macro index", "macros");
    if (i < 0)
        return NULL;
    double x = PyFloat_AsDouble(args[1]), y = PyFloat_AsDouble(args[2]);
    double w = PyFloat_AsDouble(args[3]);
    if (PyErr_Occurred() || store_commit(self, i, x, y, w) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
PlacementStore_box(PlacementStore *self, PyObject *arg)
{
    Py_ssize_t i = index_key(arg, self->count, "macro index", "macros");
    if (i < 0)
        return NULL;
    const double *f = self->index.boxes + 4 * i;
    return Py_BuildValue("(dddd)", f[0], f[1], f[2], f[3]);
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

/* stepplace.placer.PlacementStore.score of the 5 args (i, x, y, beta,
 * factor), term for term in its order: the field sum under macro i's
 * footprint at (x, y) snapped to the field's grid, the lengths of i's nets
 * in net order with its pin at (x, y), the overlap penalty against every
 * other footprint, in index order, and the weighted keep-out overlap
 * areas. */
static PyObject *
store_score(PlacementStore *s, PyObject *const *args)
{
    Py_ssize_t i = index_key(args[0], s->count, "macro index", "macros");
    if (i < 0)
        return NULL;
    double x = PyFloat_AsDouble(args[1]), y = PyFloat_AsDouble(args[2]);
    double beta = args[3] == Py_None ? 0.0 : PyFloat_AsDouble(args[3]);
    double factor = PyFloat_AsDouble(args[4]);
    if (PyErr_Occurred())
        return NULL;
    if (!(isfinite(x) && isfinite(y))) {
        PyErr_SetString(PyExc_ValueError, "candidate center must be finite");
        return NULL;
    }

    const double *h = s->half + 2 * i;
    const double fx1 = x - h[0], fy1 = y - h[1], fx2 = x + h[0], fy2 = y + h[1];
    const double fp[4] = {fx1, fy1, fx2, fy2};
    FieldCore *core = s->core;
    double score = 0.0;
    Py_ssize_t r[4];
    int snapped = snap_box(fp, s->width, s->height, core->n, core->m, r);
    if (snapped < 0 || (snapped && check_rect(core, r[0], r[1], r[2], r[3]) < 0))
        return NULL;
    if (snapped)
        score = field_cost(core, r[0], r[1], r[2], r[3]);

    const double at[2] = {x, y};
    for (Py_ssize_t t = s->nets_at[i]; t < s->nets_at[i + 1]; t++) {
        double length;
        if (net_length(net_pins(s, s->nets_of[t], i, at), args[3], beta, &length) < 0)
            return NULL;
        score += length;
    }

    /* placer.penalty: circumference of every positive-area meet, in index
     * order, so the same floats are added in the same order as by a scan
     * over every footprint */
    FootprintIndex *idx = &s->index;
    Py_ssize_t n_hits = index_hits(idx, fp, i);
    double circ = 0.0;
    for (Py_ssize_t t = 0; t < n_hits; t++) {
        const double *f = idx->boxes + 4 * idx->found[t];
        double ix1 = py_max(fx1, f[0]), iy1 = py_max(fy1, f[1]);
        double ix2 = py_min(fx2, f[2]), iy2 = py_min(fy2, f[3]);
        circ += 2.0 * ((ix2 - ix1) + (iy2 - iy1));
    }
    score += factor * circ;

    for (const double *b = s->blk; b < s->blk + 4 * s->n_blk; b += 4) {
        double ix1 = py_max(fx1, b[0]), iy1 = py_max(fy1, b[1]);
        double ix2 = py_min(fx2, b[2]), iy2 = py_min(fy2, b[3]);
        if (ix1 < ix2 && iy1 < iy2)
            score += s->weight * ((ix2 - ix1) * (iy2 - iy1));
    }
    return PyFloat_FromDouble(score);
}

static PyObject *
PlacementStore_score(PlacementStore *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError, "score expected 5 arguments, got %zd", nargs);
        return NULL;
    }
    return store_score(s, args);
}

/* The rng methods a proposal and a round's macro draw from, the 0.5 a coin
 * compares with, and the field method a round calls, made once at module
 * init. */
static PyObject *str_random, *str_getrandbits, *str_randrange, *one_half, *str_inflate,
    *str_score;

/* rng.random() < 0.5 as Python compares it: 1, 0, or -1 with an exception set */
static int
coin(PyObject *draw)
{
    if (PyFloat_CheckExact(draw))
        return PyFloat_AS_DOUBLE(draw) < 0.5;
    return PyObject_RichCompareBool(draw, one_half, Py_LT);
}

/* obj as a double; -1 with an exception set. */
static int
to_double(PyObject *obj, double *out)
{
    *out = PyFloat_AsDouble(obj);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* placer.gamma(span, u) into *out; u is read only where span >= 1, and an
 * exp that overflows raises OverflowError, as math.exp does.  -1 with an
 * exception set. */
static int
gamma_jump(double span, PyObject *u_obj, double *out)
{
    if (span < 1.0) {
        *out = 0.0;
        return 0;
    }
    double u;
    if (to_double(u_obj, &u) < 0)
        return -1;
    double e = log(span) * u;
    *out = exp(e);
    if (isinf(*out) && isfinite(e)) {
        PyErr_SetString(PyExc_OverflowError, "math range error");
        return -1;
    }
    return 0;
}

/* The tuple (x, y) of two floats, or NULL with an exception set. */
static PyObject *
float_pair(double x, double y)
{
    PyObject *cx = PyFloat_FromDouble(x), *cy = cx ? PyFloat_FromDouble(y) : NULL;
    PyObject *pair = cy ? PyTuple_New(2) : NULL;
    if (pair == NULL) {
        Py_XDECREF(cx);
        Py_XDECREF(cy);
        return NULL;
    }
    PyTuple_SET_ITEM(pair, 0, cx);
    PyTuple_SET_ITEM(pair, 1, cy);
    return pair;
}

/* One proposal of stepplace.placer.move_macro around the center c within
 * the bounds b (x_min, x_max, y_min, y_max): the same four calls of random,
 * rng's bound random, in its order, each coin compared before the next
 * draw, and the same float operations.  The (x, y) tuple, or NULL with an
 * exception set after the draws the reference makes before it raises. */
static PyObject *
propose(const double *c, const double *b, PyObject *random)
{
    PyObject *draw[4] = {NULL, NULL, NULL, NULL}, *result = NULL;
    int down[2];  /* per axis: the coin says leftward (downward) */
    /* direction x, direction y, jump x, jump y */
    for (int k = 0; k < 4; k++)
        if ((draw[k] = PyObject_CallNoArgs(random)) == NULL
            || (k < 2 && (down[k] = coin(draw[k])) < 0))
            goto done;
    double gx, gy;
    if (gamma_jump(down[0] ? c[0] - b[0] + 1.0 : b[1] - c[0], draw[2], &gx) < 0
        || gamma_jump(down[1] ? c[1] - b[2] + 1.0 : b[3] - c[1], draw[3], &gy) < 0)
        goto done;
    double x = down[0] ? c[0] - gx : c[0] + gx, y = down[1] ? c[1] - gy : c[1] + gy;
    result = float_pair(py_min(py_max(x, b[0]), b[1]), py_min(py_max(y, b[2]), b[3]));
done:
    for (int k = 0; k < 4; k++)
        Py_XDECREF(draw[k]);
    return result;
}

/* stepplace.placer.PlacementStore.proposals: the list of macro i's center,
 * then count_obj proposals around it within its bounds, each drawn by
 * propose from rng; NULL with an exception set. */
static PyObject *
store_proposals(PlacementStore *s, Py_ssize_t i, PyObject *rng, PyObject *count_obj)
{
    Py_ssize_t count = PyNumber_AsSsize_t(count_obj, PyExc_OverflowError);
    if (count == -1 && PyErr_Occurred())
        return NULL;
    count = count > 0 ? count : 0;  /* range(count) is empty below 1 */
    /* no list holds PY_SSIZE_T_MAX items, and 1 + count must not overflow */
    PyObject *out = count < PY_SSIZE_T_MAX ? PyList_New(1 + count) : PyErr_NoMemory();
    if (out == NULL)
        return NULL;
    const double *c = s->center + 2 * i, *b = s->bound + 4 * i;
    PyObject *random = NULL, *p = float_pair(c[0], c[1]);
    if (p == NULL)
        goto fail;
    PyList_SET_ITEM(out, 0, p);
    if (count && (random = PyObject_GetAttr(rng, str_random)) == NULL)
        goto fail;
    for (Py_ssize_t k = 1; k <= count; k++) {
        if ((p = propose(c, b, random)) == NULL)
            goto fail;
        PyList_SET_ITEM(out, k, p);
    }
    Py_XDECREF(random);
    return out;
fail:
    Py_XDECREF(random);
    Py_DECREF(out);
    return NULL;
}

static PyObject *
PlacementStore_proposals(PlacementStore *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "proposals expected 3 arguments, got %zd", nargs);
        return NULL;
    }
    Py_ssize_t i = index_key(args[0], s->count, "macro index", "macros");
    return i < 0 ? NULL : store_proposals(s, i, args[1], args[2]);
}

/* stepplace.placer.first_min over the n >= 1 scores v (a round scores at
 * least the macro's center): the index of the first smallest score, -1
 * where a score is not finite (each read as math.isfinite reads it, in
 * order), compared as min compares them; -2 with an exception set. */
static Py_ssize_t
pick_first_min(PyObject **v, Py_ssize_t n)
{
    Py_ssize_t best = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        double d = PyFloat_AsDouble(v[k]);
        if (d == -1.0 && PyErr_Occurred())
            return -2;
        if (!isfinite(d))
            return -1;
    }
    for (Py_ssize_t k = 1; k < n; k++) {
        int less = PyFloat_CheckExact(v[k]) && PyFloat_CheckExact(v[best])
            ? PyFloat_AS_DOUBLE(v[k]) < PyFloat_AS_DOUBLE(v[best])
            : PyObject_RichCompareBool(v[k], v[best], Py_LT);
        if (less < 0)
            return -2;
        if (less)
            best = k;
    }
    return best;
}

/* 1 where rng.randrange(n) is Random.randrange's own draw, made here as
 * Python 3.10-3.13 makes it: rng is a random.Random itself, not a subclass,
 * which may draw through another generator, and the interpreter is no later
 * one.  0 otherwise, -1 with an exception set. */
static int
draws_by_getrandbits(PyObject *rng)
{
#if PY_VERSION_HEX < 0x030E0000
    static PyObject *random_type; /* random.Random, looked up once */
    if (random_type == NULL) {
        PyObject *mod = PyImport_ImportModule("random");
        random_type = mod ? PyObject_GetAttrString(mod, "Random") : NULL;
        Py_XDECREF(mod);
        if (random_type == NULL)
            return -1;
    }
    return (PyObject *)Py_TYPE(rng) == random_type;
#else
    return 0;
#endif
}

/* rng.randrange(n), n >= 1: where draws_by_getrandbits, getrandbits(k), k
 * the bit length of n, called through rng until it is below n; else
 * rng.randrange(n) itself.  -1 with an exception set, a draw outside
 * 0 .. n - 1 refused as proposals refuses that index. */
static Py_ssize_t
draw_index(PyObject *rng, Py_ssize_t n)
{
    int own = draws_by_getrandbits(rng), bits = 0;
    if (own < 0)
        return -1;
    for (Py_ssize_t v = n; v; v >>= 1)
        bits++;
    PyObject *arg = own ? PyLong_FromLong(bits) : PyLong_FromSsize_t(n);
    if (arg == NULL)
        return -1;
    Py_ssize_t r;
    do {
        PyObject *draw = PyObject_CallMethodOneArg(rng, own ? str_getrandbits : str_randrange,
                                                   arg);
        r = draw ? PyNumber_AsSsize_t(draw, NULL) : -1;
        Py_XDECREF(draw);
    } while (own && r >= n);
    Py_DECREF(arg);
    if ((r < 0 || r >= n) && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "macro index %zd out of range for %zd macros", r, n);
    return r < 0 || r >= n ? -1 : r;
}

/* stepplace.placer.PlacementStore.round: one round of the placer.  Draws
 * macro i as draw_index does and its candidates as proposals does, calls
 * score(store, i, pos, beta, factor) once per candidate in order and picks
 * the winner as first_min does.  Unless a score is not finite (-1, nothing
 * moved), commits i there as move does and calls the field's inflate(rho)
 * once.  Returns the winner's index. */
static PyObject *
PlacementStore_round(PlacementStore *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError, "round expected 7 arguments, got %zd", nargs);
        return NULL;
    }
    PyObject *score = args[0], *rng = args[1];
    double w = PyFloat_AsDouble(args[5]);
    if (w == -1.0 && PyErr_Occurred())
        return NULL;
    if (!isfinite(w) || s->count == 0) {
        PyErr_SetString(PyExc_ValueError, isfinite(w) ? "the store has no macros to move"
                                                      : "increase value must be finite");
        return NULL;
    }
    Py_ssize_t i = draw_index(rng, s->count);
    PyObject *cands = i < 0 ? NULL : store_proposals(s, i, rng, args[2]);
    if (cands == NULL)
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(cands), best = -2;
    PyObject *scores = PyList_New(n), *index = PyLong_FromSsize_t(i), *done = NULL;
    if (scores == NULL || index == NULL)
        goto out;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *argv[5] = {(PyObject *)s, index, PyList_GET_ITEM(cands, k), args[3],
                             args[4]};
        PyObject *v = PyObject_Vectorcall(score, argv, 5, NULL);
        if (v == NULL)
            goto out;
        PyList_SET_ITEM(scores, k, v);
    }
    best = pick_first_min(PySequence_Fast_ITEMS(scores), n);
    if (best >= 0) {
        PyObject *pos = PyList_GET_ITEM(cands, best);
        if (store_commit(s, i, PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(pos, 0)),
                         PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(pos, 1)), w) == 0)
            done = PyObject_CallMethodOneArg(s->field, str_inflate, args[6]);
        if (done == NULL)
            best = -2;
    }
out:
    Py_XDECREF(done);
    Py_XDECREF(index);
    Py_XDECREF(scores);
    Py_DECREF(cands);
    return best < -1 ? NULL : PyLong_FromSsize_t(best);
}

static PyObject *
PlacementStore_get_centers(PlacementStore *self, void *closure)
{
    PyObject *out = PyList_New(self->count);
    for (Py_ssize_t i = 0; out != NULL && i < self->count; i++) {
        PyObject *c = float_pair(self->center[2 * i], self->center[2 * i + 1]);
        if (c == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, c);
    }
    return out;
}

static PyObject *
PlacementStore_get_field(PlacementStore *self, void *closure)
{
    Py_INCREF(self->field);
    return self->field;
}

static PyMethodDef PlacementStore_methods[] = {
    {"score", (PyCFunction)(void (*)(void))PlacementStore_score, METH_FASTCALL,
     "score(i, x, y, beta, factor) -> float\n\n"
     "Score of macro i centered at (x, y): the field sum under its footprint\n"
     "snapped to the field's grid, plus the model length (beta, None for the\n"
     "bounding box) of each of its nets with its pin at (x, y), plus factor\n"
     "times the overlap circumference against every other footprint, plus\n"
     "the keep-out weight times the overlap area with each keep-out; see\n"
     "stepplace.placer.PlacementStore.score."},
    {"move", (PyCFunction)(void (*)(void))PlacementStore_move, METH_FASTCALL,
     "move(i, x, y, w) -> None\n\n"
     "Commit macro i at (x, y): store its footprint, recompute its nets'\n"
     "boxes, bring its overlap pairs up to date and grow the field by w under\n"
     "each of its meets with another footprint, snapped to the field's grid,\n"
     "in index order.  A bad index, a non-finite w or footprint raises\n"
     "ValueError before anything moves."},
    {"box", (PyCFunction)PlacementStore_box, METH_O,
     "box(i) -> (x1, y1, x2, y2)\n\nThe footprint of macro i."},
    {"totals", (PyCFunction)PlacementStore_totals, METH_NOARGS,
     "totals() -> (netlength, overlap)\n\n"
     "The sums of the net boxes in net order and of the live pairs' areas in\n"
     "the order the pairs entered; int 0 where there is nothing to sum."},
    {"net_lengths", (PyCFunction)PlacementStore_net_lengths, METH_NOARGS,
     "net_lengths() -> list[float]\n\nThe bounding-box length of each net."},
    {"pairs", (PyCFunction)PlacementStore_pairs, METH_NOARGS,
     "pairs() -> list[(i, j, area)]\n\n"
     "The live overlap pairs, i < j, in the order they entered."},
    {"round", (PyCFunction)(void (*)(void))PlacementStore_round, METH_FASTCALL,
     "round(score, rng, count, beta, factor, w, rho) -> int\n\n"
     "One round of the placer: draw a macro i as rng.randrange(macros) does\n"
     "(for a random.Random itself, getrandbits with rejection, through rng;\n"
     "for any other rng, its randrange), its proposals(i, rng, count),\n"
     "call score(store, i, pos, beta, factor) once per candidate in order,\n"
     "with this store, move(i, x, y, w) to the first smallest score and call\n"
     "the field's inflate(rho) once.  Returns the winner's index, or -1 with\n"
     "nothing moved where a score is not finite.  A non-finite w or a store\n"
     "without macros raises ValueError before any draw; see\n"
     "stepplace.placer.PlacementStore.round."},
    {"proposals", (PyCFunction)(void (*)(void))PlacementStore_proposals, METH_FASTCALL,
     "proposals(i, rng, count) -> [(x, y), ...]\n\n"
     "A round's candidates for macro i: its center, then count proposals\n"
     "around it, each clamped into its bounds.  Per proposal and axis a coin\n"
     "picks the direction and the jump is log-uniform over the span to the\n"
     "bound on that side, drawing rng.random() four times: direction x,\n"
     "direction y, jump x, jump y; see stepplace.placer.move_macro."},
    {NULL}
};

static PyGetSetDef PlacementStore_getset[] = {
    {"field", (getter)PlacementStore_get_field, NULL, "the CostField the store scores against",
     NULL},
    {"centers", (getter)PlacementStore_get_centers, NULL,
     "each macro's center (x, y), in a new list on each read", NULL},
    {NULL}
};

static PyTypeObject PlacementStoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "stepplace._fieldcore.PlacementStore",
    .tp_doc = "PlacementStore(field, width, height, min_cell_x, min_cell_y, halves,\n"
              "               centers, bounds, nets, blockages, blockage_weight)\n\n"
              "The placer's placement of the macros 0 .. count - 1 over a width x\n"
              "height area, scored against field, a CostField on the C core:\n"
              "halves, centers and bounds hold hx, hy, x, y and x_min, x_max,\n"
              "y_min, y_max per macro (proposals clamps into the bounds), nets the\n"
              "members of each net as macro indices, blockages x1, y1, x2, y2 per\n"
              "keep-out, each overlap area with one weighing blockage_weight in a\n"
              "score.  The footprints sit in a grid of cells of at least min_cell_x\n"
              "by min_cell_y, at most about count of them, the border cells reaching\n"
              "to infinity.  move commits a macro and grows the field under its\n"
              "meets.  stepplace.placer.PlacementStore is its Python reference.",
    .tp_basicsize = sizeof(PlacementStore),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PlacementStore_new,
    .tp_dealloc = (destructor)PlacementStore_dealloc,
    .tp_methods = PlacementStore_methods,
    .tp_getset = PlacementStore_getset,
};

/* repr_line: sep.join(map(repr, values)) + "\n" for floats and ints, the
 * line every file writer of stepplace.io_cli writes (its Python reference
 * is io_cli.py_repr_line).
 *
 * repr(x) of a float is the shortest decimal that reads back as x, the one
 * nearest x among those (David Gay's dtoa, mode 0, behind
 * PyOS_double_to_string).  For a normal x between 2^-13 and 2^123 the same
 * digits come from exact 128-bit integer arithmetic.  With x = m * 2^e, x
 * and both ends of its rounding interval, in quarter ulps 4m, 4m + 2 and
 * 4m - 2 (4m - 1 where the gap below is half the gap above), are scaled by
 * a power of ten to 18 or 19 digits, each with a flag telling whether its
 * floor is exact; then digits are removed while the interval still holds a
 * shorter decimal, as Ryu does (Adams, PLDI 2018).  An interval end is part
 * of the interval exactly when m is even (a round-half-even read returns x
 * from it).  Zero is written directly.  PyOS_double_to_string writes the
 * rest: non-finite and subnormal values, magnitudes outside that range, a
 * value exactly halfway between its two nearest shortest decimals, and
 * every value where the compiler has no 128-bit integer. */

typedef struct {
    char *data;
    Py_ssize_t len, cap;
    char stack[512];
} LineBuf;

/* Room for n more bytes; -1 with MemoryError. */
static int
line_reserve(LineBuf *b, Py_ssize_t n)
{
    if (b->len + n <= b->cap)
        return 0;
    Py_ssize_t cap = 2 * (b->len + n);
    char *data = b->data == b->stack ? PyMem_Malloc(cap) : PyMem_Realloc(b->data, cap);
    if (data == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (b->data == b->stack)
        memcpy(data, b->stack, b->len);
    b->data = data;
    b->cap = cap;
    return 0;
}

static int
line_append(LineBuf *b, const char *s, Py_ssize_t n)
{
    if (line_reserve(b, n) < 0)
        return -1;
    memcpy(b->data + b->len, s, n);
    b->len += n;
    return 0;
}

/* Writes the decimal digits of v at the end of the 20 bytes at end - 20;
 * returns how many. */
static int
put_digits(char *end, uint64_t v)
{
    int n = 0;
    do {
        *--end = (char)('0' + v % 10);
        v /= 10;
        n++;
    } while (v);
    return n;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL,
    1000000000000ULL, 10000000000000ULL, 100000000000000ULL,
    1000000000000000ULL, 10000000000000000ULL, 100000000000000000ULL,
    1000000000000000000ULL, 10000000000000000000ULL,
};

/* 10^k for 0 <= k <= 38 */
static u128
pow10_u128(int k)
{
    return k < 20 ? POW10[k] : (u128)POW10[19] * POW10[k - 19];
}

/* floor(n * 2^e * 10^s), with *exact set when the floor drops nothing.
 * Callers keep n < 2^56, s <= 21, and e + 56 <= 127; s < 0 only where
 * e >= 0 and e < 0 only where s > 0. */
static uint64_t
scaled_floor(uint64_t n, int e, int s, int *exact)
{
    u128 x = (u128)n;
    if (s > 0)
        x *= pow10_u128(s);
    if (e < 0) {
        *exact = (x & (((u128)1 << -e) - 1)) == 0;
        return (uint64_t)(x >> -e);
    }
    x <<= e;
    if (s >= 0) {
        *exact = 1;
        return (uint64_t)x;
    }
    u128 d = pow10_u128(-s);
    *exact = x % d == 0;
    return (uint64_t)(x / d);
}

/* The shortest decimal digits of the normal double m * 2^e (m holds the
 * implicit bit, 2^-13 <= value < 2^123) as *digits * 10^*exp10, the one
 * nearest the value among them; -1 for a value exactly halfway between two
 * such decimals. */
static int
shortest_digits(uint64_t m, int e, uint64_t *digits, int *exp10)
{
    int even = (m & 1) == 0;
    /* the gap below a power of two is half the gap above it */
    uint64_t below = m == (1ULL << 52) ? 1 : 2;
    /* 10^(k - 1) <= value < 10^(k + 1), so 10^17 <= vr < 10^19 */
    int k = (int)floor((e + 52) * 0.30102999566398120);
    int s = 17 - k, vr_exact, vp_exact, vm_exact;
    uint64_t vr = scaled_floor(4 * m, e - 2, s, &vr_exact);
    uint64_t vp = scaled_floor(4 * m + 2, e - 2, s, &vp_exact);
    uint64_t vm = scaled_floor(4 * m - below, e - 2, s, &vm_exact);
    if (!even)
        vp -= vp_exact;  /* the upper end is not part of the interval */
    int vm_zeros = even && vm_exact;  /* vm is the lower end, which is part */
    int vr_zeros = vr_exact;          /* what vr dropped was 0 before last */
    int removed = 0;
    unsigned last = 0;                /* the digit vr dropped last */
    /* two digits a pass while the interval holds a decimal two shorter
     * (Ryu's loop), then at most one */
    while (vp / 100 > vm / 100) {
        vm_zeros &= vm % 100 == 0;
        vr_zeros &= last == 0 && vr % 10 == 0;
        last = (unsigned)(vr / 10 % 10);
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    if (vp / 10 > vm / 10) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (unsigned)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vm_zeros)
        while (vm % 10 == 0) {
            vr_zeros &= last == 0;
            last = (unsigned)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
    if (vr_zeros && last == 5)
        return -1;
    *digits = vr + ((vr == vm && !vm_zeros) || last >= 5);
    *exp10 = removed - s;
    return 0;
}
#endif

/* Appends repr(x), for a float x. */
static int
line_append_float(LineBuf *b, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int negative = (int)(bits >> 63), biased = (int)(bits >> 52) & 0x7ff;
    uint64_t frac = bits & ((1ULL << 52) - 1);
    if (biased == 0 && frac == 0)
        return negative ? line_append(b, "-0.0", 4) : line_append(b, "0.0", 3);
#ifdef __SIZEOF_INT128__
    uint64_t digits;
    int exp10;
    if (biased >= 1023 - 13 && biased < 1023 + 123
        && shortest_digits(frac | (1ULL << 52), biased - 1075, &digits, &exp10) == 0) {
        char d[20], *out;
        int n = put_digits(d + 20, digits), point = n + exp10;
        const char *first = d + 20 - n;
        /* at most 25 bytes: '-', "0.000" and 19 digits, or '-', 19 digits
         * with a point and "e+XX" */
        if (line_reserve(b, 40) < 0)
            return -1;
        out = b->data + b->len;
        if (negative)
            *out++ = '-';
        if (point <= -4 || point > 16) {
            /* d[.ddd]e+XX, the exponent of at least two digits */
            int ex = point - 1;
            *out++ = first[0];
            if (n > 1) {
                *out++ = '.';
                memcpy(out, first + 1, n - 1);
                out += n - 1;
            }
            *out++ = 'e';
            *out++ = ex < 0 ? '-' : '+';
            ex = ex < 0 ? -ex : ex;
            *out++ = (char)('0' + ex / 10);
            *out++ = (char)('0' + ex % 10);
        }
        else {
            /* the digits with the point among them, padded with zeros */
            if (point <= 0) {
                memcpy(out, "0.000", 2 - point);
                out += 2 - point;
            }
            for (int i = 0; i < n || i < point; i++) {
                if (i && i == point)
                    *out++ = '.';
                *out++ = i < n ? first[i] : '0';
            }
            if (point >= n) {
                memcpy(out, ".0", 2);
                out += 2;
            }
        }
        b->len = out - b->data;
        return 0;
    }
#endif
    char *s = PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
    if (s == NULL)
        return -1;
    int rc = line_append(b, s, (Py_ssize_t)strlen(s));
    PyMem_Free(s);
    return rc;
}

/* Appends repr(v) for an int or a float v; TypeError for anything else. */
static int
line_append_number(LineBuf *b, PyObject *v)
{
    if (PyFloat_CheckExact(v))
        return line_append_float(b, PyFloat_AS_DOUBLE(v));
    if (PyLong_CheckExact(v)) {
        int overflow;
        long long i = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (i == -1 && PyErr_Occurred())
            return -1;
        if (!overflow) {
            char d[21];
            int n = put_digits(d + 21, i < 0 ? 0 - (uint64_t)i : (uint64_t)i);
            if (i < 0)
                d[21 - ++n] = '-';
            return line_append(b, d + 21 - n, n);
        }
    }
    else if (!PyFloat_Check(v) && !PyLong_Check(v)) {
        PyErr_Format(PyExc_TypeError, "repr_line takes floats and ints, not %.200s",
                     Py_TYPE(v)->tp_name);
        return -1;
    }
    /* a subclass, whose repr may differ, or an int beyond 64 bits */
    PyObject *r = PyObject_Repr(v);
    if (r == NULL)
        return -1;
    Py_ssize_t n;
    const char *s = PyUnicode_AsUTF8AndSize(r, &n);
    int rc = s == NULL ? -1 : line_append(b, s, n);
    Py_DECREF(r);
    return rc;
}

static PyObject *
repr_line(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "repr_line expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    if (!PyUnicode_Check(args[1])) {
        PyErr_Format(PyExc_TypeError, "sep must be a str, not %.200s",
                     Py_TYPE(args[1])->tp_name);
        return NULL;
    }
    Py_ssize_t sep_len;
    const char *sep = PyUnicode_AsUTF8AndSize(args[1], &sep_len);
    if (sep == NULL)
        return NULL;
    /* a tuple, whose items no value's repr can replace */
    PyObject *values = args[0];
    if (PyTuple_Check(values))
        Py_INCREF(values);
    else if ((values = PySequence_Tuple(values)) == NULL)
        return NULL;
    LineBuf b = {.len = 0, .cap = sizeof b.stack};
    b.data = b.stack;
    PyObject *result = NULL;
    for (Py_ssize_t k = 0; k < PyTuple_GET_SIZE(values); k++)
        if ((k && line_append(&b, sep, sep_len) < 0)
            || line_append_number(&b, PyTuple_GET_ITEM(values, k)) < 0)
            goto done;
    if (line_append(&b, "\n", 1) == 0)
        result = PyUnicode_DecodeUTF8(b.data, b.len, NULL);
done:
    if (b.data != b.stack)
        PyMem_Free(b.data);
    Py_DECREF(values);
    return result;
}

/* The footprints the legalizer has placed and the area's keep-outs, with the
 * lattice search of stepplace.placer._nearest_free over them; its Python
 * reference is stepplace.placer.PyFreeSpace. */
typedef struct {
    PyObject_HEAD
    FootprintIndex index;  /* the placed footprints, keyed 0 .. count - 1 */
    Py_ssize_t count;
    Py_ssize_t n_blk;      /* keep-outs */
    double *blk;           /* x1, y1, x2, y2 per keep-out */
} FreeSpace;

/* netmodel.BucketGrid.first_hit over the index, then the first keep-out: a
 * box that meets query, or NULL if there is none. */
static const double *
blocker(const FreeSpace *s, const double *query)
{
    const FootprintIndex *idx = &s->index;
    Py_ssize_t c[4];
    box_cells(idx, query, c);
    for (Py_ssize_t i = c[0]; i <= c[2]; i++) {
        for (Py_ssize_t j = c[1]; j <= c[3]; j++) {
            const Bucket *b = &idx->cells[i * idx->rows + j];
            Py_ssize_t best = -1;
            for (Py_ssize_t t = 0; t < b->len; t++) {
                Py_ssize_t k = b->keys[t];
                if ((best < 0 || k < best) && boxes_meet(query, idx->boxes + 4 * k))
                    best = k;
            }
            if (best >= 0)
                return idx->boxes + 4 * best;
        }
    }
    for (const double *b = s->blk; b < s->blk + 4 * s->n_blk; b += 4)
        if (boxes_meet(query, b))
            return b;
    return NULL;
}

/* One axis of a search: its n lattice points and the footprint edges
 * around them. */
typedef struct {
    Py_ssize_t n;
    double *at, *low, *high;
} Lattice;

/* Most points one lattice axis may hold (the legalizer's hold at most about
 * 2**11, at the grid cap). */
#define MAX_LATTICE ((Py_ssize_t)1 << 20)

/* The number of points of placer._lattice(lo, hi, step): lo + i * step
 * while below hi, then hi; -1 above MAX_LATTICE. */
static Py_ssize_t
lattice_count(double lo, double hi, double step)
{
    Py_ssize_t n = 0;
    while (n < MAX_LATTICE && lo + (double)n * step < hi)
        n++;
    return n < MAX_LATTICE ? n + 1 : -1;
}

/* Writes the points of placer._lattice(lo, hi, step) and the edges
 * v - half and v + half of the footprints around them. */
static void
lattice_fill(Lattice *a, double lo, double hi, double step, double half)
{
    for (Py_ssize_t i = 0; i < a->n; i++) {
        double v = i < a->n - 1 ? lo + (double)i * step : hi;
        a->at[i] = v;
        a->low[i] = v - half;
        a->high[i] = v + half;
    }
}

/* bisect.bisect_left and bisect_right over n ascending values */
static Py_ssize_t
bisect_left(const double *a, Py_ssize_t n, double v)
{
    Py_ssize_t lo = 0;
    while (lo < n) {
        Py_ssize_t mid = (lo + n) / 2;
        if (a[mid] < v)
            lo = mid + 1;
        else
            n = mid;
    }
    return lo;
}

static Py_ssize_t
bisect_right(const double *a, Py_ssize_t n, double v)
{
    Py_ssize_t lo = 0;
    while (lo < n) {
        Py_ssize_t mid = (lo + n) / 2;
        if (v < a[mid])
            n = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* placer._nearest_index */
static Py_ssize_t
nearest_index(const Lattice *a, double v)
{
    Py_ssize_t i = bisect_left(a->at, a->n, v);
    if (i > a->n - 1)
        i = a->n - 1;
    return i > 0 && fabs(a->at[i - 1] - v) <= fabs(a->at[i] - v) ? i - 1 : i;
}

/* placer._nearest_free over the lattice xs x ys, with row holding two
 * cursors per column: the first point whose footprint no blocker meets, in
 * rings of index distance r around the point nearest (px, py), each by
 * ascending column, the upward cursor before the downward one.  Every cursor
 * of ring r is at distance r or more when the ring starts (one at less was
 * probed and moved on), and a blocker moves cursors only farther out, so
 * visiting the ring's columns in order and probing the cursors found at
 * distance r probes what the Python bucket queue does, in its order.  With
 * every footprint non-empty, the point is the first free one of the rings.
 * The point goes to out; returns 1, or 0 if every point is blocked. */
static int
ring_search(const FreeSpace *s, const Lattice *xs, const Lattice *ys, Py_ssize_t *row,
            double px, double py, double *out)
{
    Py_ssize_t nx = xs->n, ny = ys->n;
    Py_ssize_t ci = nearest_index(xs, px), cj = nearest_index(ys, py);
    for (Py_ssize_t k = 0; k < nx; k++) {
        row[2 * k] = cj;
        row[2 * k + 1] = cj - 1;
    }
    for (Py_ssize_t r = 0; r < nx + ny - 1; r++) {
        Py_ssize_t k_end = ci + r < nx - 1 ? ci + r : nx - 1;
        for (Py_ssize_t k = ci - r > 0 ? ci - r : 0; k <= k_end; k++) {
            Py_ssize_t rem = r - (k < ci ? ci - k : k - ci);
            for (Py_ssize_t u = 2 * k; u <= 2 * k + 1; u++) {
                Py_ssize_t j = row[u];
                if (j < 0 || j >= ny || (j < cj ? cj - j : j - cj) != rem)
                    continue;
                const double box[4] = {xs->low[k], ys->low[j], xs->high[k], ys->high[j]};
                const double *blk = blocker(s, box);
                if (blk == NULL) {
                    out[0] = xs->at[k];
                    out[1] = ys->at[j];
                    return 1;
                }
                /* blk covers rows lo .. hi - 1 of columns c1 .. c2 - 1, this point's too */
                Py_ssize_t lo = bisect_right(ys->high, ny, blk[1]);
                Py_ssize_t hi = bisect_left(ys->low, ny, blk[3]);
                Py_ssize_t c1 = bisect_right(xs->high, nx, blk[0]);
                Py_ssize_t c2 = bisect_left(xs->low, nx, blk[2]);
                for (Py_ssize_t c = c1; c < c2; c++) {
                    if (lo <= row[2 * c] && row[2 * c] < hi)
                        row[2 * c] = hi;
                    if (lo <= row[2 * c + 1] && row[2 * c + 1] < hi)
                        row[2 * c + 1] = lo - 1;
                }
            }
        }
    }
    return 0;
}

/* The count doubles of a fastcall, each as Python's float() takes it; -1 with
 * an exception set. */
static int
fast_doubles(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t count, const char *name,
             double *out)
{
    if (nargs != count) {
        PyErr_Format(PyExc_TypeError, "%s expected %zd arguments, got %zd", name, count,
                     nargs);
        return -1;
    }
    for (Py_ssize_t t = 0; t < count; t++)
        if (to_double(args[t], &out[t]) < 0)
            return -1;
    return 0;
}

static PyObject *
FreeSpace_nearest_free(FreeSpace *s, PyObject *const *args, Py_ssize_t nargs)
{
    double a[10]; /* x_lo, x_hi, x_step, y_lo, y_hi, y_step, x, y, hx, hy */
    if (fast_doubles(args, nargs, 10, "nearest_free", a) < 0)
        return NULL;
    for (int t = 0; t < 10; t++) {
        if (!isfinite(a[t]) || ((t == 2 || t == 5) && !(a[t] > 0.0))) {
            PyErr_SetString(PyExc_ValueError,
                            "nearest_free takes finite values and positive steps");
            return NULL;
        }
    }
    Lattice xs = {lattice_count(a[0], a[1], a[2])}, ys = {lattice_count(a[3], a[4], a[5])};
    if (xs.n < 0 || ys.n < 0) {
        PyErr_SetString(PyExc_ValueError, "lattice step too fine for its span");
        return NULL;
    }
    double *v = malloc((size_t)(3 * (xs.n + ys.n)) * sizeof(double));
    Py_ssize_t *row = malloc((size_t)(2 * xs.n) * sizeof(Py_ssize_t));
    PyObject *out = NULL;
    double found[2];
    if (v == NULL || row == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    xs.at = v;
    xs.low = v + xs.n;
    xs.high = v + 2 * xs.n;
    ys.at = v + 3 * xs.n;
    ys.low = ys.at + ys.n;
    ys.high = ys.at + 2 * ys.n;
    lattice_fill(&xs, a[0], a[1], a[2], a[8]);
    lattice_fill(&ys, a[3], a[4], a[5], a[9]);
    if (ring_search(s, &xs, &ys, row, a[6], a[7], found))
        out = Py_BuildValue("(dd)", found[0], found[1]);
    else
        out = Py_NewRef(Py_None);
done:
    free(v);
    free(row);
    return out;
}

static PyObject *
FreeSpace_blocked(FreeSpace *s, PyObject *const *args, Py_ssize_t nargs)
{
    double box[4];
    if (fast_doubles(args, nargs, 4, "blocked", box) < 0)
        return NULL;
    return PyBool_FromLong(blocker(s, box) != NULL);
}

static PyObject *
FreeSpace_put(FreeSpace *s, PyObject *const *args, Py_ssize_t nargs)
{
    double box[4];
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError, "put expected 5 arguments, got %zd", nargs);
        return NULL;
    }
    Py_ssize_t key = index_key(args[0], s->count, "key", "footprints");
    if (key < 0 || fast_doubles(args + 1, 4, 4, "put", box) < 0
        || index_put(&s->index, key, box) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static void
FreeSpace_dealloc(FreeSpace *s)
{
    index_free(&s->index);
    free(s->blk);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static PyObject *
FreeSpace_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"width", "height", "min_cell_x", "min_cell_y", "count",
                             "blockages", NULL};
    double width, height, min_x, min_y;
    Py_ssize_t count;
    PyObject *blockages;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "ddddnO:FreeSpace", kwlist, &width, &height,
                                     &min_x, &min_y, &count, &blockages))
        return NULL;
    if (count < 0) {
        PyErr_SetString(PyExc_ValueError, "count must be >= 0");
        return NULL;
    }
    FreeSpace *s = (FreeSpace *)type->tp_alloc(type, 0);
    if (s == NULL)
        return NULL;
    s->count = count;
    if (space_init(&s->index, count, width, height, min_x, min_y, blockages, &s->n_blk,
                   &s->blk) < 0) {
        Py_DECREF(s);
        return NULL;
    }
    return (PyObject *)s;
}

static PyMethodDef FreeSpace_methods[] = {
    {"put", (PyCFunction)(void (*)(void))FreeSpace_put, METH_FASTCALL,
     "put(key, x1, y1, x2, y2)\n\nStore the footprint under key, or move it there."},
    {"blocked", (PyCFunction)(void (*)(void))FreeSpace_blocked, METH_FASTCALL,
     "blocked(x1, y1, x2, y2) -> bool\n\n"
     "Whether a placed footprint or a keep-out meets the box with positive area."},
    {"nearest_free", (PyCFunction)(void (*)(void))FreeSpace_nearest_free, METH_FASTCALL,
     "nearest_free(x_lo, x_hi, x_step, y_lo, y_hi, y_step, x, y, hx, hy)\n"
     "    -> (x, y) | None\n\n"
     "The first point of the lattice lo + i * step below hi, then hi, per\n"
     "axis, whose footprint (hx, hy the half sides around it) meets nothing,\n"
     "in rings of index distance around the point nearest (x, y); None if\n"
     "there is none.  Every footprint of the lattice must be non-empty.\n"
     "See stepplace.placer._nearest_free."},
    {NULL}
};

static PyTypeObject FreeSpaceType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "stepplace._fieldcore.FreeSpace",
    .tp_doc = "FreeSpace(width, height, min_cell_x, min_cell_y, count, blockages)\n\n"
              "The legalizer's placed footprints, keyed 0 .. count - 1 and bucketed\n"
              "as in PlacementStore over a width x height area, and the keep-outs,\n"
              "x1, y1, x2, y2 per keep-out in a buffer of doubles.\n"
              "stepplace.placer.PyFreeSpace is its Python reference.",
    .tp_basicsize = sizeof(FreeSpace),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = FreeSpace_new,
    .tp_dealloc = (destructor)FreeSpace_dealloc,
    .tp_methods = FreeSpace_methods,
};

/* stepplace.placer.py_candidate_score(store, i, pos, beta, factor), the
 * placer's scoring hook: store.score(i, x, y, beta, factor) for x, y = pos.
 * For a pos that is a 2-tuple it runs a C store's score body with no call
 * between; any other store gets its score method called.  Any other call
 * is handed to the Python function itself, so it returns, or raises, what
 * that returns or raises. */
static PyObject *
candidate_score(PyObject *module, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    PyObject *pos = nargs == 5 ? args[2] : NULL;
    if (kwnames == NULL && pos != NULL && PyTuple_CheckExact(pos)
        && PyTuple_GET_SIZE(pos) == 2) {
        PyObject *argv[6] = {args[0], args[1], PyTuple_GET_ITEM(pos, 0),
                             PyTuple_GET_ITEM(pos, 1), args[3], args[4]};
        return Py_IS_TYPE(args[0], &PlacementStoreType)
            ? store_score((PlacementStore *)args[0], argv + 1)
            : PyObject_VectorcallMethod(str_score, argv, 6, NULL);
    }
    static PyObject *reference; /* placer.py_candidate_score, looked up once */
    if (reference == NULL) {
        PyObject *mod = PyImport_ImportModule("stepplace.placer");
        reference = mod ? PyObject_GetAttrString(mod, "py_candidate_score") : NULL;
        Py_XDECREF(mod);
        if (reference == NULL)
            return NULL;
    }
    return PyObject_Vectorcall(reference, args, nargs, kwnames);
}

static PyMethodDef fieldcore_functions[] = {
    {"candidate_score", (PyCFunction)(void (*)(void))candidate_score,
     METH_FASTCALL | METH_KEYWORDS,
     "candidate_score(store, i, pos, beta, factor) -> float\n\n"
     "store.score(i, x, y, beta, factor) for x, y = pos: the placer's\n"
     "scoring hook, which runs a C store's score body with no Python frame.\n"
     "stepplace.placer.py_candidate_score is its reference; any call but one\n"
     "with a 2-tuple pos is handed to it."},
    {"repr_line", (PyCFunction)(void (*)(void))repr_line, METH_FASTCALL,
     "repr_line(values, sep) -> str\n\n"
     "sep.join(map(repr, values)) + '\\n' for a sequence of floats and ints,\n"
     "with repr's bytes; TypeError for any other value.  A float's digits\n"
     "come from 128-bit integers where that is exact and unambiguous, else\n"
     "from the interpreter's repr; see stepplace.io_cli.py_repr_line."},
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
    if (str_random == NULL
        && ((str_random = PyUnicode_InternFromString("random")) == NULL
            || (one_half = PyFloat_FromDouble(0.5)) == NULL
            || (str_getrandbits = PyUnicode_InternFromString("getrandbits")) == NULL
            || (str_randrange = PyUnicode_InternFromString("randrange")) == NULL
            || (str_inflate = PyUnicode_InternFromString("inflate")) == NULL
            || (str_score = PyUnicode_InternFromString("score")) == NULL)) {
        Py_CLEAR(str_random);
        Py_CLEAR(one_half);
        Py_CLEAR(str_getrandbits);
        Py_CLEAR(str_randrange);
        Py_CLEAR(str_inflate);
        return NULL;
    }
    PyObject *mod = PyModule_Create(&fieldcoremodule);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddType(mod, &FieldCoreType) < 0
        || PyModule_AddType(mod, &PlacementStoreType) < 0
        || PyModule_AddType(mod, &FreeSpaceType) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
