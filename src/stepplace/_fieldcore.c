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
 * once in 4425 inflates.  An inflate also folds where the constant over rho
 * would exceed FOLD_ABOVE, and an increase folds first where its value over
 * the scale exceeds FOLD_ABOVE, so that no stored coefficient and no read
 * overflows where the field's values do not.
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
 * draws the macro as rng.randrange does and its candidates (its center, then
 * proposals drawn around it within its bounds as stepplace._pycore.move_macro
 * draws them) into C doubles, scores each with the placer's scoring hook,
 * picks the winner as stepplace._pycore.first_min does, commits it as move
 * does, and inflates the field once.  Where the field resolves inflate to
 * stepplace.stepfield.CostField.inflate, which that module hands the core
 * once as it defines it, and holds the store's own core, the round runs
 * that inflate's body, the field core's inflate, with no call; any other
 * inflate (a subclass's, or one put on the class or the instance) is
 * called.  Its step method is the placer's round_step in one call: it
 * computes the round's delta, beta and w from the state's round and the
 * config's _pycore.Schedule (libm pow, as float ** calls it), runs round's
 * body, sets the state's round and last_choice and builds the
 * _pycore.RoundStats row in place, with the type's tp_alloc.  A round
 * decides once how it draws from its rng.  From a
 * random.Random itself, whose instance overrides none of random,
 * getrandbits, randrange and _randbelow and whose class holds
 * _random.Random's random and getrandbits, it draws the macro (as
 * randrange does, by getrandbits with rejection) and every candidate from
 * the generator's own Mersenne Twister words, read and advanced in place in
 * CPython's object, once a guard run once per process, through
 * _random.Random's own methods, found that object laid out and drawing as
 * this core reads it (3.10-3.13, not on free-threaded builds); the words
 * regenerate in CPython's two loops, and each proposal's eight are
 * tempered in one run where they lie before the regeneration.  Otherwise
 * it draws by calls: the macro by rng.randrange, and each proposal draw by
 * rng.random.  Either way the log of each span a jump covers is taken once
 * per round, per axis and direction, not once per proposal.
 * The hook is called as score(store, i, x, y, beta, factor); it is the
 * store's own unbound score method where the core loaded, and where the
 * round's hook is that method itself the round runs the score body on its
 * doubles, with no call or float per candidate.  Any other hook's results
 * are read as float() reads them into the same doubles, and the winner is
 * picked over those doubles either way.  With its own score the round
 * scores the first candidate in full and each later one by branch and
 * bound: a lower bound of its score (the exact field sum, lower bounds of
 * its smoothed nets and the keep-out terms, first without the overlap
 * penalty, then with it) that already reaches the least score before it
 * settles it before its smoothed nets, or its overlap query too, where the
 * round's terms are small enough that its score is provably finite; the
 * winner is never settled, so the bits are those of every score in full.
 * A commit is one body, shared by move and round: it moves the macro and
 * grows the field under each snapped meet with the field core's increase
 * body.  A macro committed at its own center, bit for bit, keeps its
 * footprint and net boxes, and one with no live pair meets nothing, so its
 * pairs are not looked up either (a round of 20 macros keeps its macro
 * where it is about three times in four).  The kernel under the score decides by arithmetic where it
 * can, not by branches: a level of axis_components writes both of its possible
 * components and counts the nonzero ones, index_find stores each key it
 * tests and counts the ones that meet, field_cost sums four rows at a time,
 * each in column order, joining the total in row order, and field_increase
 * takes each column's factor once, not once per row.
 *
 * The module function legalize is placer.naive_legalize's placing loop in
 * one call, over the netlist's own arrays by index (half sides, bounds),
 * the placement's centers by index and the placing order; it clamps each
 * start into its bounds as placer._clamped does.  It holds the footprints
 * it has placed in a FootprintIndex and the area's keep-outs; a probe takes
 * the least key index_find finds, by a scan, then the keep-outs.  A macro
 * keeps its start where a probe there meets nothing, else it takes the
 * nearest free center as _pycore._free_candidate finds it: the candidates
 * (start, bounds, and abutting a box in a window around the start, grown
 * until it holds the answer) in rising distance, from a winner tree of the
 * columns' cursors, which a blocker moves past the rows it covers.  The
 * search reads only the edges of the boxes index_find finds, unsorted; the
 * penalty and the pair update sort them (index_hits), since their sums and
 * pair order depend on it.
 *
 * All of these do the float operations of their Python references, the
 * same names in stepplace._pycore (stepfield.core where this did not load),
 * in their order, so they return their bits (build with -ffp-contract=off).
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
    double *C = self->coef, vy[MAX_AXIS_COMPONENTS];
    Py_ssize_t m = self->m;
    for (int j = 0; j < ky; j++)
        vy[j] = sy[j] * ny[j];
    for (int i = 0; i < kx; i++) {
        double vx = sx[i] * nx[i] * v;
        Py_ssize_t row = ix[i] * m;
        for (int j = 0; j < ky; j++)
            C[row + iy[j]] += vx * vy[j];
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

/* Decays every non-constant coefficient by rho: the body of inflate and of
 * a round's inflate of a field whose inflate is stepfield.CostField.inflate
 * itself (see round_inflate).  0, or -1 with ValueError set for a rho
 * outside (0, 1]. */
static int
field_inflate(FieldCore *self, double rho)
{
    if (!(rho > 0.0 && rho <= 1.0)) {
        PyErr_SetString(PyExc_ValueError, "decay factor must be in (0, 1]");
        return -1;
    }
    double s = self->scale * rho, *constant = self->coef + self->n * self->m - 1;
    if (s < FOLD_BELOW || fabs(*constant / rho) > FOLD_ABOVE) {
        fold_scale(self, s);
    }
    else {
        self->scale = s;
        *constant /= rho; /* the constant never decays */
    }
    return 0;
}

static PyObject *
FieldCore_inflate(FieldCore *self, PyObject *arg)
{
    double rho = PyFloat_AsDouble(arg);
    if ((rho == -1.0 && PyErr_Occurred()) || field_inflate(self, rho) < 0)
        return NULL;
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
    {"inflate", (PyCFunction)FieldCore_inflate, METH_O,
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

/* netmodel.model_length of one net with a sharpness beta (not None, whose
 * length is bb_length); -1 with its exception set where it raises */
static int
net_length(NetPins p, double beta, double *out)
{
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

/* The limit of a lower bound of a score, of minus its field sum and of the
 * most the terms the bound leaves out can add, within which a round settles
 * a candidate by its bound (see PlacementStore_round); DBL_MAX is about
 * 2^24 times it. */
#define SETTLE_LIMIT 0x1p1000

/* A lower bound of one net's model length, beta NULL or positive: at most
 * the length net_length (bb_length for NULL) computes, bit for bit.  Where
 * beta is NULL it is bb_length itself.  Else each axis leaves out a
 * non-negative term, so that each step rounds at or below the length's
 * step, and rounding is monotone: a 2-pin net's axis is fabs(beta * d) /
 * beta, edge_axis without its log1p term; a larger net's axis is hi - lo,
 * at most lse_axis's pos + neg. */
static double
net_bound(NetPins p, const double *beta)
{
    if (beta == NULL)
        return bb_length(p);
    if (p.n == 2) {
        double dx = pin_at(p, 0, 0) - pin_at(p, 1, 0);
        double dy = pin_at(p, 0, 1) - pin_at(p, 1, 1);
        return fabs(*beta * dx) / *beta + fabs(*beta * dy) / *beta;
    }
    double hx, lx, hy, ly;
    axis_extremes(p, 0, &hx, &lx);
    axis_extremes(p, 1, &hy, &ly);
    return (hx - lx) + (hy - ly);
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

/* Writes to idx->found, in no particular order, every key but skip whose
 * box meets the query; returns their count.  Two such boxes share the cell
 * of a common point, and the clamp at the border is monotone, so the cells
 * the query's closed extent touches hold them. */
static Py_ssize_t
index_find(FootprintIndex *idx, const double *query, Py_ssize_t skip)
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
    return n;
}

/* index_find's keys, ascending: a footprint meets a few boxes, so they are
 * sorted in place, unless many. */
static Py_ssize_t
index_hits(FootprintIndex *idx, const double *query, Py_ssize_t skip)
{
    Py_ssize_t n = index_find(idx, query, skip), *found = idx->found;
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

/* _pycore.snap_to_grid: the cells of an n x m grid over a width x height
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

/* The placer's placement, as stepplace._pycore.PlacementStore keeps it in
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
 * _pycore.PlacementStore._update_overlaps does: a pair that stays keeps its
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
    if (n) /* a macro that never had a partner has no keys array */
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
        if (view.len) /* an empty buffer's may be NULL */
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
 * core's increase body.  A macro that stays where it is, bit for bit, keeps
 * its footprint and net boxes, which are those it would get; without a
 * live pair it also meets nothing, since every other move brought its
 * pairs with this footprint up to date, so its pairs are not looked up
 * either.  0, or -1 with an exception set. */
static int
store_commit(PlacementStore *s, Py_ssize_t i, double x, double y, double w)
{
    if (!isfinite(w)) {
        PyErr_SetString(PyExc_ValueError, "increase value must be finite");
        return -1;
    }
    const double at[2] = {x, y};
    if (memcmp(at, s->center + 2 * i, sizeof at) != 0) {
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
    }
    else if (s->partners[i].len == 0) {
        return 0;
    }
    Py_ssize_t n = update_pairs(s, i);
    FieldCore *core = s->core;
    for (Py_ssize_t t = 0; t < n; t++) {
        Py_ssize_t r[4];
        int snapped = snap_box(s->meets + 4 * t, s->width, s->height, core->n, core->m, r);
        /* the one guard on the cells field_increase writes; as in score_at,
         * it cannot fire */
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

/* The two totals of a statistics row into *net and *overlap: the sums of
 * the net boxes and of the live pairs' areas, each left to right from 0
 * (int 0 with nothing to sum), in one loop, so that the two chains of
 * dependent adds overlap.  0, or -1 with an exception set and both NULL. */
static int
store_totals(const PlacementStore *self, PyObject **net, PyObject **overlap)
{
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
    *net = n_bb ? PyFloat_FromDouble(sum_bb) : PyLong_FromLong(0);
    *overlap = self->n_live ? PyFloat_FromDouble(sum_area) : PyLong_FromLong(0);
    if (*net && *overlap)
        return 0;
    Py_CLEAR(*net);
    Py_CLEAR(*overlap);
    return -1;
}

static PyObject *
PlacementStore_totals(PlacementStore *self, PyObject *unused)
{
    PyObject *net, *overlap;
    if (store_totals(self, &net, &overlap) < 0)
        return NULL;
    PyObject *out = PyTuple_Pack(2, net, overlap);
    Py_DECREF(net);
    Py_DECREF(overlap);
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

/* sum plus the keep-out weight times the overlap area of the footprint fp
 * with each keep-out it meets, in keep-out order */
static double
add_keepouts(const PlacementStore *s, const double *fp, double sum)
{
    for (const double *b = s->blk; b < s->blk + 4 * s->n_blk; b += 4) {
        double ix1 = py_max(fp[0], b[0]), iy1 = py_max(fp[1], b[1]);
        double ix2 = py_min(fp[2], b[2]), iy2 = py_min(fp[3], b[3]);
        if (ix1 < ix2 && iy1 < iy2)
            sum += s->weight * ((ix2 - ix1) * (iy2 - iy1));
    }
    return sum;
}

/* _pycore.penalty of macro i's footprint fp: factor times the circumference
 * of every positive-area meet with another footprint, in index order, so
 * the same floats are added in the same order as by a scan over every
 * footprint */
static double
overlap_penalty(PlacementStore *s, Py_ssize_t i, const double *fp, double factor)
{
    FootprintIndex *idx = &s->index;
    Py_ssize_t n_hits = index_hits(idx, fp, i);
    double circ = 0.0;
    for (Py_ssize_t t = 0; t < n_hits; t++) {
        const double *f = idx->boxes + 4 * idx->found[t];
        double ix1 = py_max(fp[0], f[0]), iy1 = py_max(fp[1], f[1]);
        double ix2 = py_min(fp[2], f[2]), iy2 = py_min(fp[3], f[3]);
        circ += 2.0 * ((ix2 - ix1) + (iy2 - iy1));
    }
    return factor * circ;
}

/* Whether a lower bound of a candidate's score whose field sum is field
 * settles the candidate against low, the least score before it in its
 * round: the bound is at least low, so the candidate is not the first
 * smallest, and it and minus the field sum are at most SETTLE_LIMIT, so
 * that its score is finite (see PlacementStore_round). */
static inline int
settles(double bound, double field, double low)
{
    return bound >= low && bound <= SETTLE_LIMIT && field >= -SETTLE_LIMIT;
}

/* stepplace._pycore.PlacementStore.score of macro i at (x, y) with the
 * sharpness *beta (NULL for None) and the penalty factor, term for term in
 * its order: the field sum under macro i's footprint at (x, y) snapped to
 * the field's grid, the lengths of i's nets in net order with its pin at
 * (x, y), the overlap penalty against every other footprint, in index
 * order, and the weighted keep-out overlap areas.  The body of score and of
 * a round whose hook is score itself.
 *
 * low is the least score before this candidate in a round that may settle
 * it by a bound (PlacementStore_round), else inf, which settles nothing, as
 * for score and a round's first candidate.  Where low is below inf, the
 * score is added up in two stages before the smoothed net lengths, each a
 * lower bound of the score in its order: first the field sum, the net
 * bounds (net_bound) and the keep-out terms, with the penalty taken as 0,
 * before the overlap query; then the same with the penalty.
 * Where settles(), *out is that bound, which is at least low and at most
 * the score.  Where beta is None the net bounds are the lengths, and the
 * second stage is the score.  0, or -1 with an exception set. */
static int
score_at(PlacementStore *s, Py_ssize_t i, double x, double y, const double *beta,
         double factor, double low, double *out)
{
    if (!(isfinite(x) && isfinite(y))) {
        PyErr_SetString(PyExc_ValueError, "candidate center must be finite");
        return -1;
    }

    const double *h = s->half + 2 * i;
    const double fp[4] = {x - h[0], y - h[1], x + h[0], y + h[1]};
    FieldCore *core = s->core;
    double score = 0.0;
    Py_ssize_t r[4];
    int snapped = snap_box(fp, s->width, s->height, core->n, core->m, r);
    /* the one guard on the cells field_cost reads; it cannot fire: snap_box
     * leaves the grid only at a1 == a2 == n, yet x1 < width and cx = width /
     * 2^p is exact for sides of at least MIN_AREA_SIDE, so x1 / cx < n */
    if (snapped < 0 || (snapped && check_rect(core, r[0], r[1], r[2], r[3]) < 0))
        return -1;
    if (snapped)
        score = field_cost(core, r[0], r[1], r[2], r[3]);

    const double at[2] = {x, y};
    const Py_ssize_t *net = s->nets_of + s->nets_at[i], *end = s->nets_of + s->nets_at[i + 1];
    int settle = low < INFINITY;
    double bound = score;
    if (settle || beta == NULL)
        for (const Py_ssize_t *k = net; k < end; k++)
            bound += net_bound(net_pins(s, *k, i, at), beta);
    if (settle && settles(*out = add_keepouts(s, fp, bound), score, low))
        return 0;
    double pen = overlap_penalty(s, i, fp, factor);
    if (settle || beta == NULL) {
        *out = add_keepouts(s, fp, bound + pen);
        if (beta == NULL || settles(*out, score, low))
            return 0;
    }
    for (const Py_ssize_t *k = net; k < end; k++) {
        double length;
        if (net_length(net_pins(s, *k, i, at), *beta, &length) < 0)
            return -1;
        score += length;
    }
    *out = add_keepouts(s, fp, score + pen);
    return 0;
}

static PyObject *
PlacementStore_score(PlacementStore *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError, "score expected 5 arguments, got %zd", nargs);
        return NULL;
    }
    Py_ssize_t i = index_key(args[0], s->count, "macro index", "macros");
    if (i < 0)
        return NULL;
    double x = PyFloat_AsDouble(args[1]), y = PyFloat_AsDouble(args[2]);
    double beta = args[3] == Py_None ? 0.0 : PyFloat_AsDouble(args[3]);
    double factor = PyFloat_AsDouble(args[4]), out;
    if (PyErr_Occurred()
        || score_at(s, i, x, y, args[3] == Py_None ? NULL : &beta, factor, INFINITY, &out) < 0)
        return NULL;
    return PyFloat_FromDouble(out);
}

/* The rng methods a round draws through and the names its instance may
 * override them under, the 0.5 a coin compares with, the field attributes
 * a round reads, the PlacerState and PlacerConfig attributes step reads and
 * writes, PlacementStore.score, the hook a round runs without a call, and
 * stepplace._pycore.RoundStats, the type of step's row, made once at module
 * init; own_inflate, stepfield.CostField.inflate, the field method a round
 * runs without a call, set by _own_inflate. */
static PyObject *str_random, *str_getrandbits, *str_randrange, *str_randbelow, *one_half,
    *str_inflate, *str_core, *str_round, *str_rng, *str_last_choice, *str_config,
    *str_schedule, *score_method, *own_inflate;
static PyTypeObject *round_stats;

/* The field's inflate(rho) that ends a round.  Where the field's class
 * holds own_inflate under inflate and nothing under core, looks attributes
 * up as object does, and the instance holds no inflate and the store's core
 * under core, field.inflate(rho) would run own_inflate's body,
 * self.core.inflate(rho), on that core: field_inflate runs it here on
 * decay, rho as a double, with no call.  Any other inflate is called: a
 * subclass's, one put on the class (the benchmark's tracer puts its wrapper
 * there) or on the instance.  0, or -1 with an exception set. */
static int
round_inflate(PlacementStore *s, PyObject *rho, double decay)
{
    PyObject *field = s->field;
    PyTypeObject *type = Py_TYPE(field);
    if (own_inflate != NULL && type->tp_getattro == PyObject_GenericGetAttr
        && type->tp_dictoffset != 0 && _PyType_Lookup(type, str_inflate) == own_inflate
        && _PyType_Lookup(type, str_core) == NULL) {
        PyObject *dict = PyObject_GenericGetDict(field, NULL);
        if (dict == NULL)
            return -1;
        int own = PyDict_GetItemWithError(dict, str_core) == (PyObject *)s->core
            && PyDict_GetItemWithError(dict, str_inflate) == NULL;
        Py_DECREF(dict);
        if (PyErr_Occurred())
            return -1;
        if (own)
            return field_inflate(s->core, decay);
    }
    PyObject *done = PyObject_CallMethodOneArg(field, str_inflate, rho);
    Py_XDECREF(done);
    return done == NULL ? -1 : 0;
}

/* How a round draws from its rng, decided once per round by draw_kind:
 * DRAW_CALLS asks the rng for randrange(n) and calls its random() for each
 * proposal draw; DRAW_IN_PLACE makes the same draws from the rng's own
 * Mersenne Twister words, with no call. */
enum { DRAW_CALLS, DRAW_IN_PLACE };

/* The in-place draws read CPython's _random.Random object as
 * Modules/_randommodule.c lays it out on 3.10-3.13, and only where the
 * layout guard (mt_layout_ok) passed.  Free-threaded builds lock that
 * object per call, so they draw by calls. */
#if PY_VERSION_HEX < 0x030E0000 && !defined(Py_GIL_DISABLED)
#define DRAWS_IN_PLACE 1
#define MT_N 624
#define MT_M 397

typedef struct {
    PyObject_HEAD
    int index;
    uint32_t state[MT_N];
} MTObject;

/* random.Random, _random.Random, and the latter's own random, getrandbits
 * and getstate as its type holds them, looked up once by mt_load */
static PyObject *random_type, *mt_type, *mt_random, *mt_getrandbits, *mt_getstate;
/* the guard's verdict: 1 passed, 0 failed, -1 not yet reached */
static int mt_layout = -1;

/* Looks up random_type, mt_type and mt_type's three methods where they are
 * not held yet: 0, or -1 with an exception set. */
static int
mt_load(void)
{
    if (mt_getstate != NULL)
        return 0;
    PyObject *mod = PyImport_ImportModule("random");
    PyObject *cls = mod ? PyObject_GetAttrString(mod, "Random") : NULL;
    Py_XDECREF(mod);
    mod = cls ? PyImport_ImportModule("_random") : NULL;
    PyObject *base = mod ? PyObject_GetAttrString(mod, "Random") : NULL;
    Py_XDECREF(mod);
    PyObject *got[3] = {NULL, NULL, NULL};
    if (base != NULL && (got[0] = PyObject_GetAttr(base, str_random)) != NULL
        && (got[1] = PyObject_GetAttr(base, str_getrandbits)) != NULL)
        got[2] = PyObject_GetAttrString(base, "getstate");
    if (got[2] == NULL) {
        Py_XDECREF(cls);
        Py_XDECREF(base);
        Py_XDECREF(got[0]);
        Py_XDECREF(got[1]);
        return -1;
    }
    random_type = cls;
    mt_type = base;
    mt_random = got[0];
    mt_getrandbits = got[1];
    mt_getstate = got[2];
    return 0;
}

/* A state word tempered into a word of the stream, as genrand_uint32 does. */
static inline uint32_t
mt_temper(uint32_t y)
{
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* The next word of rng's stream, as _random's genrand_uint32 makes it:
 * the 624 words regenerate at index 624, in its two loops, which the
 * compiler can vectorize, then one is tempered. */
static uint32_t
mt_word(MTObject *r)
{
    uint32_t *mt = r->state, y;
    if (r->index >= MT_N) {
        int k;
        for (k = 0; k < MT_N - MT_M; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
            mt[k] = mt[k + MT_M] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
        }
        for (; k < MT_N - 1; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
            mt[k] = mt[k + (MT_M - MT_N)] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
        r->index = 0;
    }
    return mt_temper(mt[r->index++]);
}

/* The next n words of rng's stream into out, as n mt_word calls make them:
 * tempered in one run where all n lie before the regeneration point, else
 * word by word. */
static void
mt_words(MTObject *r, uint32_t *out, int n)
{
    if (r->index > MT_N - n) {
        for (int t = 0; t < n; t++)
            out[t] = mt_word(r);
        return;
    }
    const uint32_t *mt = r->state + r->index;
    for (int t = 0; t < n; t++)
        out[t] = mt_temper(mt[t]);
    r->index += n;
}

/* rng.random() from its two words a and b: ((a >> 5) * 2^26 + (b >> 6)) / 2^53 */
static inline double
mt_unit(uint32_t a, uint32_t b)
{
    return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0);
}

/* Whether the draw of one value by a method call, made, equals v. */
static int
drawn_equal(PyObject *made, double v)
{
    int eq = made != NULL && PyFloat_AsDouble(made) == v;
    Py_XDECREF(made);
    return eq;
}

/* The layout guard, after mt_load: _random.Random's basic size is
 * MTObject's, random.Random derives from it, a seeded _random.Random
 * probe's words and index read in place equal its getstate(), and random()
 * and getrandbits(k), k = 1 .. 32, drawn in place across two regenerations
 * equal those of a twin, with equal final getstate()s.  Every call goes to
 * _random.Random's own methods, never through random.Random, whose
 * methods a caller may have replaced.  1 where all of that holds, 0 where
 * not, -1 with an exception set where a call failed. */
static int
mt_layout_ok(void)
{
    if (!PyType_Check(mt_type) || ((PyTypeObject *)mt_type)->tp_basicsize != sizeof(MTObject)
        || !PyType_Check(random_type)
        || !PyType_IsSubtype((PyTypeObject *)random_type, (PyTypeObject *)mt_type))
        return 0;
    PyObject *probe = PyObject_CallFunction(mt_type, "i", 20261020);
    PyObject *twin = probe ? PyObject_CallFunction(mt_type, "i", 20261020) : NULL;
    PyObject *state = twin ? PyObject_CallOneArg(mt_getstate, probe) : NULL, *other = NULL;
    MTObject *r = (MTObject *)probe;
    int ok = 0;
    if (state == NULL || !PyTuple_Check(state) || PyTuple_GET_SIZE(state) != MT_N + 1)
        goto done;
    for (Py_ssize_t k = 0; k <= MT_N; k++) {
        unsigned long v = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(state, k));
        if (v != (k < MT_N ? (unsigned long)r->state[k] : (unsigned long)r->index))
            goto done;
    }
    for (int rep = 0; rep < 40; rep++) {
        uint32_t word[2];
        mt_words(r, word, 2);
        if (!drawn_equal(PyObject_CallOneArg(mt_random, twin), mt_unit(word[0], word[1])))
            goto done;
        for (int k = 1; k <= 32; k++)
            if (!drawn_equal(PyObject_CallFunction(mt_getrandbits, "Oi", twin, k),
                             (double)(mt_word(r) >> (32 - k))))
                goto done;
    }
    Py_SETREF(state, PyObject_CallOneArg(mt_getstate, probe));
    other = state ? PyObject_CallOneArg(mt_getstate, twin) : NULL;
    ok = other ? PyObject_RichCompareBool(state, other, Py_EQ) : -1;
done:
    if (PyErr_Occurred())
        ok = -1;
    Py_XDECREF(probe);
    Py_XDECREF(twin);
    Py_XDECREF(state);
    Py_XDECREF(other);
    return ok;
}

/* Whether rng's draws may be taken in place: the guard's verdict, the guard
 * run on the first ask.  -1 with an exception set where the guard could not
 * finish (say, on MemoryError or KeyboardInterrupt), which leaves the
 * verdict to the next ask. */
static int
mt_ready(void)
{
    if (mt_layout < 0 && mt_load() == 0)
        mt_layout = mt_layout_ok();
    return mt_layout;
}
#endif

/* The DRAW_ kind of a round on rng: DRAW_IN_PLACE where rng's type is
 * random.Random itself, not a subclass, which may draw through another
 * generator, that type looks up _random.Random's own random and
 * getrandbits, the instance holds none of random, getrandbits, randrange
 * and _randbelow (the methods randrange's draw goes through), and the
 * layout guard passed; else DRAW_CALLS.  The class's randrange and
 * _randbelow are taken to be the random module's.  -1 with an exception
 * set. */
static int
draw_kind(PyObject *rng)
{
#ifdef DRAWS_IN_PLACE
    if (mt_load() < 0)
        return -1;
    PyTypeObject *type = Py_TYPE(rng);
    if ((PyObject *)type != random_type || _PyType_Lookup(type, str_random) != mt_random
        || _PyType_Lookup(type, str_getrandbits) != mt_getrandbits)
        return DRAW_CALLS;
    PyObject *dict = PyObject_GenericGetDict(rng, NULL);
    if (dict == NULL)
        return -1;
    PyObject *const names[4] = {str_random, str_getrandbits, str_randrange, str_randbelow};
    int has = 0;
    for (int k = 0; has == 0 && k < 4; k++)
        has = PyDict_Contains(dict, names[k]);
    Py_DECREF(dict);
    if (has != 0)
        return has < 0 ? -1 : DRAW_CALLS;
    has = mt_ready();
    return has < 0 ? -1 : has ? DRAW_IN_PLACE : DRAW_CALLS;
#else
    return DRAW_CALLS;
#endif
}

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

/* One axis of a stepplace._pycore.move_macro proposal from the center c
 * within [lo, hi], into *out: a jump of _pycore.gamma(span, u) down, over
 * the span c - lo + 1, or up, over hi - c, clamped.  lg is log(span), or
 * negative for a span below 1 (see draw_candidates).  u is the draw u_obj
 * read as a double where u_obj is not NULL, and is read only where the span
 * is not below 1, as gamma reads it; an exp that overflows raises
 * OverflowError, as math.exp does.  -1 with an exception set. */
static int
propose_axis(int down, double c, double lo, double hi, double lg, PyObject *u_obj, double u,
             double *out)
{
    double jump = 0.0;
    if (!(lg < 0.0)) {
        if (u_obj != NULL && to_double(u_obj, &u) < 0)
            return -1;
        double e = lg * u;
        jump = exp(e);
        if (isinf(jump) && isfinite(e)) {
            PyErr_SetString(PyExc_OverflowError, "math range error");
            return -1;
        }
    }
    *out = py_min(py_max(down ? c - jump : c + jump, lo), hi);
    return 0;
}

/* One proposal of stepplace._pycore.move_macro around the center c within
 * the bounds b (x_min, x_max, y_min, y_max), whose spans' logs are lg,
 * into xy: the same four calls of random, rng's bound random, in its order
 * (direction x, direction y, jump x, jump y), each coin compared before the
 * next draw, and the same float operations.  0, or -1 with an exception set
 * after the draws the reference makes before it raises. */
static int
propose(PyObject *random, const double *c, const double *b, const double *lg, double *xy)
{
    PyObject *draw[4] = {NULL, NULL, NULL, NULL};
    int down[2], rc = -1; /* per axis: the coin says leftward (downward) */
    for (int k = 0; k < 4; k++)
        if ((draw[k] = PyObject_CallNoArgs(random)) == NULL
            || (k < 2 && (down[k] = coin(draw[k])) < 0))
            goto done;
    for (int a = 0; a < 2; a++)
        if (propose_axis(down[a], c[a], b[2 * a], b[2 * a + 1], lg[2 * a + down[a]],
                         draw[2 + a], 0.0, xy + a) < 0)
            goto done;
    rc = 0;
done:
    for (int k = 0; k < 4; k++)
        Py_XDECREF(draw[k]);
    return rc;
}

/* Macro i's center, then count proposals around it within its bounds, each
 * drawn as propose draws it from rng, by the DRAW_ kind's draws, into xy,
 * x and y each; 0, or -1 with an exception set. */
static int
draw_candidates(PlacementStore *s, Py_ssize_t i, PyObject *rng, int kind, Py_ssize_t count,
                double *xy)
{
    /* the center as it stands before the draws, which may call Python */
    const double c[2] = {s->center[2 * i], s->center[2 * i + 1]}, *b = s->bound + 4 * i;
    double lg[4];
    xy[0] = c[0];
    xy[1] = c[1];
    if (count == 0)
        return 0;
    /* the log of each span a jump covers, once per round: lg[2 * a + down]
     * for axis a and direction down, or -1 where the span is below 1 and
     * no jump reads it (the log of any other span, NaN too, is not
     * negative) */
    for (int a = 0; a < 2; a++) {
        const double span[2] = {b[2 * a + 1] - c[a], c[a] - b[2 * a] + 1.0};
        for (int down = 0; down < 2; down++)
            lg[2 * a + down] = span[down] < 1.0 ? -1.0 : log(span[down]);
    }
#ifdef DRAWS_IN_PLACE
    if (kind == DRAW_IN_PLACE) {
        /* the same four draws per proposal, from its eight words; no error
         * before its last */
        for (Py_ssize_t k = 1; k <= count; k++) {
            uint32_t word[8];
            double u[4];
            mt_words((MTObject *)rng, word, 8);
            for (int t = 0; t < 4; t++)
                u[t] = mt_unit(word[2 * t], word[2 * t + 1]);
            for (int a = 0; a < 2; a++) {
                int down = u[a] < 0.5;
                if (propose_axis(down, c[a], b[2 * a], b[2 * a + 1], lg[2 * a + down], NULL,
                                 u[2 + a], xy + 2 * k + a) < 0)
                    return -1;
            }
        }
        return 0;
    }
#endif
    PyObject *random = PyObject_GetAttr(rng, str_random);
    int rc = random ? 0 : -1;
    for (Py_ssize_t k = 1; rc == 0 && k <= count; k++)
        rc = propose(random, c, b, lg, xy + 2 * k);
    Py_XDECREF(random);
    return rc;
}

/* Candidates whose x, y and score a round holds on the stack. */
#define STACK_CANDIDATES 65

/* Reads count_obj as range() reads a count (below 1, no proposals) into
 * *count, and returns room for the x, y and score of each of the 1 + *count
 * candidates: stack, which holds STACK_CANDIDATES, or a block to PyMem_Free.
 * NULL with an exception set, MemoryError where no block holds them. */
static double *
candidate_room(PyObject *count_obj, double *stack, Py_ssize_t *count)
{
    Py_ssize_t k = PyNumber_AsSsize_t(count_obj, PyExc_OverflowError);
    if (k == -1 && PyErr_Occurred())
        return NULL;
    *count = k = k > 0 ? k : 0;
    if (k < STACK_CANDIDATES)
        return stack;
    double *room = k < PY_SSIZE_T_MAX / (Py_ssize_t)(3 * sizeof(double))
        ? PyMem_Malloc((size_t)(1 + k) * 3 * sizeof(double)) : NULL;
    return room ? room : (double *)PyErr_NoMemory();
}

/* stepplace._pycore.first_min over the n >= 1 scores v: the index of the
 * first smallest, -1 where a score is not finite. */
static Py_ssize_t
min_index(const double *v, Py_ssize_t n)
{
    Py_ssize_t best = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        if (!isfinite(v[k]))
            return -1;
        if (v[k] < v[best])
            best = k;
    }
    return best;
}

/* Whether a round of macro i over its n candidates xy may settle a candidate
 * by a lower bound of its score (see store_round): factor and the
 * keep-out weight are not negative, beta is NULL or positive and finite,
 * every candidate lies within SETTLE_LIMIT of the origin on each axis, and
 * the most the terms a bound leaves out can add is at most SETTLE_LIMIT.
 * That is, for the penalty, factor times 2 * count times
 * 4 * ((X + |hx|) + (Y + |hy|)), X and Y the largest |x| and |y| of a
 * candidate: a meet's side is at most its footprint's, fl(x + hx) -
 * fl(x - hx) <= 2 * fl(X + |hx|), fewer than count footprints meet it, and
 * the factor 2 covers the rounding of their sum; for the smoothed nets,
 * alpha = 1 / beta times 4 * log(pins) per net, since per axis each of
 * lse_axis's two log terms is at most alpha * log(pins), and edge_axis's
 * log1p term at most log(2) / beta.  A candidate that is not finite raises
 * in score_at whatever this says. */
static int
may_settle(const PlacementStore *s, Py_ssize_t i, const double *xy, Py_ssize_t n,
           const double *beta, double factor)
{
    if (!(factor >= 0.0 && s->weight >= 0.0
          && (beta == NULL || (*beta > 0.0 && *beta < INFINITY))))
        return 0;
    double X = 0.0, Y = 0.0;
    for (Py_ssize_t k = 0; k < n; k++) {
        X = py_max(X, fabs(xy[2 * k]));
        Y = py_max(Y, fabs(xy[2 * k + 1]));
    }
    const double *h = s->half + 2 * i;
    double spare = factor * (2.0 * (double)s->count
                             * (4.0 * ((X + fabs(h[0])) + (Y + fabs(h[1])))));
    if (beta != NULL) {
        double logs = 0.0;
        for (Py_ssize_t t = s->nets_at[i]; t < s->nets_at[i + 1]; t++) {
            Py_ssize_t k = s->nets_of[t];
            logs += 4.0 * log((double)(s->net_at[k + 1] - s->net_at[k]));
        }
        spare += 1.0 / *beta * logs;
    }
    return X <= SETTLE_LIMIT && Y <= SETTLE_LIMIT && spare <= SETTLE_LIMIT;
}

/* rng.randrange(n), n >= 1, by the DRAW_ kind's draws: for DRAW_IN_PLACE
 * with n below 2^32, one word >> (32 - k) per draw, k the bit length of n,
 * until it is below n, as randrange's getrandbits(k) draws it; else
 * rng.randrange(n) itself.  -1 with an exception set, a draw outside
 * 0 .. n - 1 refused as an index out of range. */
static Py_ssize_t
draw_index(PyObject *rng, Py_ssize_t n, int kind)
{
#ifdef DRAWS_IN_PLACE
    int bits = 0;
    for (Py_ssize_t v = n; v; v >>= 1)
        bits++;
    if (kind == DRAW_IN_PLACE && bits <= 32) {
        Py_ssize_t r;
        do
            r = (Py_ssize_t)(mt_word((MTObject *)rng) >> (32 - bits));
        while (r >= n);
        return r;
    }
#endif
    PyObject *arg = PyLong_FromSsize_t(n);
    PyObject *draw = arg ? PyObject_CallMethodOneArg(rng, str_randrange, arg) : NULL;
    Py_ssize_t r = draw ? PyNumber_AsSsize_t(draw, NULL) : -1;
    Py_XDECREF(draw);
    Py_XDECREF(arg);
    if ((r < 0 || r >= n) && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "macro index %zd out of range for %zd macros", r, n);
    return r < 0 || r >= n ? -1 : r;
}

/* stepplace._pycore.PlacementStore.round, the body of round and of step:
 * one round of the placer.  A non-finite w, then a rho outside (0, 1]
 * (read as a double), then a store without macros raise ValueError before
 * any draw.  Takes the round's DRAW_ kind once, draws macro i as
 * draw_index does and its candidates as draw_candidates does, as C
 * doubles, scores each in order into a double and picks the winner over
 * them as first_min does.  Where score is score_method, each score is
 * score_at's; else score(store, i, x, y, beta, factor) is called and what
 * it returns read as float() reads it.  Unless a score is not finite (-1,
 * nothing moved), commits i there as move does and inflates the field by
 * rho once, as round_inflate does: in place where the field's inflate is
 * CostField.inflate over the store's core, else by calling it.  Returns
 * the winner's index, or -2 with an exception set.
 *
 * Scoring by score_at is branch and bound: the first candidate is scored
 * in full, and, where may_settle, each later one may be settled by a bound
 * of its score that is at least low, the least score before it (see
 * score_at).  A settled candidate cannot be the first smallest, and its
 * bound in v neither lowers low nor goes below the winner's score, which
 * is below every score before it and so never settled; a tie keeps the
 * earlier index.  So min_index picks the index the full scores give, and
 * may_settle and settles() make a settled candidate's score finite, so
 * that -1 keeps its meaning: every term after the field is non-negative,
 * the field sum is at least -L and the bound at most L (L = SETTLE_LIMIT),
 * so the bound's terms after the field add up to about 2L at most; each
 * term of the score exceeds its bound's by at most what may_settle bounds
 * by L, up to rounding far below L, and so every sum of the score stays
 * within about -L and 4L, far from overflow.  Within a net length, too:
 * the candidates lie within L of the origin, so the pins of a net whose
 * bound is at most about 2L lie within about 3L, and lse_axis's pos and
 * neg stay within about 4L. */
static Py_ssize_t
store_round(PlacementStore *s, PyObject *score, PyObject *rng, PyObject *count_obj,
            PyObject *beta_obj, PyObject *factor_obj, double w, PyObject *rho)
{
    double decay = 1.0;
    if (isfinite(w) && to_double(rho, &decay) < 0)
        return -2;
    const char *refused = !isfinite(w) ? "increase value must be finite"
        : !(decay > 0.0 && decay <= 1.0) ? "decay factor must be in (0, 1]"
        : s->count == 0 ? "the store has no macros to move" : NULL;
    if (refused != NULL) {
        PyErr_SetString(PyExc_ValueError, refused);
        return -2;
    }
    int kind = draw_kind(rng);
    Py_ssize_t i = kind < 0 ? -1 : draw_index(rng, s->count, kind), count = 0, best = -2, n;
    double stack[3 * STACK_CANDIDATES];
    double *xy = i < 0 ? NULL : candidate_room(count_obj, stack, &count);
    PyObject *index = NULL;
    if (xy == NULL || draw_candidates(s, i, rng, kind, count, xy) < 0)
        goto out;
    n = 1 + count;
    double *v = xy + 2 * n;
    if (score == score_method) {
        /* beta and factor converted once, as score converts them */
        double low = INFINITY;
        double beta = beta_obj == Py_None ? 0.0 : PyFloat_AsDouble(beta_obj);
        double factor = PyFloat_AsDouble(factor_obj);
        const double *beta_at = beta_obj == Py_None ? NULL : &beta;
        if (PyErr_Occurred())
            goto out;
        int settle = may_settle(s, i, xy, n, beta_at, factor);
        for (Py_ssize_t k = 0; k < n; k++) {
            if (score_at(s, i, xy[2 * k], xy[2 * k + 1], beta_at, factor,
                         settle ? low : INFINITY, v + k) < 0)
                goto out;
            if (v[k] < low)
                low = v[k];
        }
    }
    else {
        if ((index = PyLong_FromSsize_t(i)) == NULL)
            goto out;
        for (Py_ssize_t k = 0; k < n; k++) {
            PyObject *argv[6] = {(PyObject *)s, index, PyFloat_FromDouble(xy[2 * k]),
                                 PyFloat_FromDouble(xy[2 * k + 1]), beta_obj, factor_obj};
            PyObject *got = argv[2] && argv[3] ? PyObject_Vectorcall(score, argv, 6, NULL)
                                               : NULL;
            PyObject *f = got ? PyNumber_Float(got) : NULL;
            Py_XDECREF(argv[2]);
            Py_XDECREF(argv[3]);
            Py_XDECREF(got);
            if (f == NULL)
                goto out;
            v[k] = PyFloat_AS_DOUBLE(f);
            Py_DECREF(f);
        }
    }
    best = min_index(v, n);
    if (best >= 0 && (store_commit(s, i, xy[2 * best], xy[2 * best + 1], w) < 0
                      || round_inflate(s, rho, decay) < 0))
        best = -2;
out:
    Py_XDECREF(index);
    if (xy != stack)
        PyMem_Free(xy);
    return best;
}

static PyObject *
PlacementStore_round(PlacementStore *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError, "round expected 7 arguments, got %zd", nargs);
        return NULL;
    }
    double w;
    if (to_double(args[5], &w) < 0)
        return NULL;
    Py_ssize_t best = store_round(s, args[0], args[1], args[2], args[3], args[4], w, args[6]);
    return best < -1 ? NULL : PyLong_FromSsize_t(best);
}

/* base * growth**step as _pycore.grown computes it in floats: inf where
 * the power overflows, as float ** raises OverflowError there. */
static double
grown(double base, double power)
{
    return isinf(power) ? INFINITY : base * power;
}

/* The fields of _pycore.Schedule, in its order. */
enum { S_MAX_ROUNDS, S_SWITCH, S_COUNT, S_PENALTY, S_DELTA0, S_DELTA_GROWTH, S_W0,
       S_W_GROWTH, S_RHO, S_FIELDS };

/* A RoundStats row holding the n items, stolen, as
 * tuple.__new__(RoundStats, items) builds it, with the type's tp_alloc and
 * no tuple between; NULL with an exception set, every item released, where
 * an item is NULL or the row cannot be made. */
static PyObject *
new_row(PyObject **items, Py_ssize_t n)
{
    Py_ssize_t k = 0;
    while (k < n && items[k] != NULL)
        k++;
    PyObject *row = k < n ? NULL : round_stats->tp_alloc(round_stats, n);
    for (k = 0; k < n; k++) {
        if (row != NULL)
            PyTuple_SET_ITEM(row, k, items[k]);
        else
            Py_XDECREF(items[k]);
    }
    return row;
}

/* The body of step, on the state's schedule sv, its S_FIELDS items. */
static PyObject *
store_step(PlacementStore *s, PyObject *score, PyObject *state, PyObject *const *sv)
{
    double f[S_FIELDS];
    for (int k = S_PENALTY; k <= S_W_GROWTH; k++)
        if (to_double(sv[k], f + k) < 0)
            return NULL;
    /* max_rounds, at most PY_SSIZE_T_MAX where the config made it, so that
     * every round number is a long long */
    int over;
    PyObject *round_obj = PyObject_GetAttr(state, str_round);
    long long prev = round_obj ? PyLong_AsLongLongAndOverflow(round_obj, &over) : -1;
    long long max_rounds = PyLong_AsLongLong(sv[S_MAX_ROUNDS]);
    Py_XDECREF(round_obj);
    if (PyErr_Occurred())
        return NULL;
    const char *refused = over > 0 || (over == 0 && prev >= max_rounds)
        ? "all configured rounds already executed"
        : over < 0 || prev < 0 ? "the state's round must not be negative"
        : s->count == 0 ? "the state has no macros to move" : NULL;
    if (refused != NULL) {
        PyErr_SetString(PyExc_ValueError, refused);
        return NULL;
    }
    long long switch_round = PyLong_AsLongLongAndOverflow(sv[S_SWITCH], &over);
    long long rnd = prev + 1;
    int smooth = over > 0 || rnd < switch_round;
    double delta = grown(f[S_DELTA0], pow(f[S_DELTA_GROWTH], (double)prev));
    double w = grown(f[S_W0], pow(f[S_W_GROWTH], (double)prev));
    PyObject *beta;
    if (max_rounds <= (1LL << 53)) {
        beta = PyFloat_FromDouble((double)max_rounds / (double)(max_rounds - prev));
    }
    else {
        /* past 2^53 a double division may round twice: Python's exact one */
        PyObject *den = PyLong_FromLongLong(max_rounds - prev);
        beta = den ? PyNumber_TrueDivide(sv[S_MAX_ROUNDS], den) : NULL;
        Py_XDECREF(den);
    }
    PyObject *factor = PyFloat_FromDouble(f[S_PENALTY] * delta);
    PyObject *rng = beta && factor ? PyObject_GetAttr(state, str_rng) : NULL;
    Py_ssize_t best = rng ? store_round(s, score, rng, sv[S_COUNT], smooth ? beta : Py_None,
                                        factor, w, sv[S_RHO]) : -2;
    Py_XDECREF(rng);
    Py_XDECREF(factor);
    if (best == -1)
        PyErr_Format(PyExc_ValueError, "round %lld: a candidate score is not finite; "
                     "lower w0, w_growth, penalty_c or delta0", rnd);
    PyObject *row[6] = {NULL, NULL, NULL, NULL, beta, NULL}, *choice = NULL;
    if (best >= 0 && (row[0] = PyLong_FromLongLong(rnd)) != NULL
        && PyObject_SetAttr(state, str_round, row[0]) == 0
        && (choice = PyLong_FromSsize_t(best)) != NULL
        && PyObject_SetAttr(state, str_last_choice, choice) == 0
        && store_totals(s, row + 1, row + 2) == 0) {
        row[3] = PyFloat_FromDouble(delta);
        row[5] = PyFloat_FromDouble(w);
    }
    Py_XDECREF(choice);
    return new_row(row, 6);
}

/* stepplace._pycore.PlacementStore.step: the state's next round on this
 * store, with the schedules of the round computed here.  Reads
 * state.round, state.rng and the schedule state.config._schedule, a
 * _pycore.Schedule; refuses a round past its max_rounds, a negative
 * state.round, then a store without macros, each with ValueError before
 * any draw; computes delta and w as grown does, with libm pow as float **
 * calls it, and beta as max_rounds / (max_rounds - rnd + 1), in doubles
 * where both ints are exact doubles, else as Python divides the ints; runs
 * store_round with beta None from the switch round on and the factor
 * penalty_c * delta; raises ValueError naming the round where a score is
 * not finite, with nothing moved; sets state.round and state.last_choice,
 * and returns the RoundStats row (rnd, netlength, overlap, delta, beta,
 * w). */
static PyObject *
PlacementStore_step(PlacementStore *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "step expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    PyObject *config = PyObject_GetAttr(args[1], str_config);
    PyObject *schedule = config ? PyObject_GetAttr(config, str_schedule) : NULL, *row = NULL;
    Py_XDECREF(config);
    if (schedule != NULL && (!PyTuple_Check(schedule) || PyTuple_GET_SIZE(schedule) != S_FIELDS))
        PyErr_SetString(PyExc_TypeError, "step expected the state's config to hold a Schedule");
    else if (schedule != NULL)
        row = store_step(s, args[0], args[1], &PyTuple_GET_ITEM(schedule, 0));
    Py_XDECREF(schedule);
    return row;
}

static PyObject *
PlacementStore_get_centers(PlacementStore *self, void *closure)
{
    PyObject *out = PyList_New(self->count);
    for (Py_ssize_t i = 0; out != NULL && i < self->count; i++) {
        PyObject *c = Py_BuildValue("(dd)", self->center[2 * i], self->center[2 * i + 1]);
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
     "stepplace._pycore.PlacementStore.score."},
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
     "One round of the placer: draw a macro i as rng.randrange(macros) does,\n"
     "its center and count proposals around it within its bounds (each as\n"
     "stepplace._pycore.move_macro draws one), score each candidate in order as\n"
     "float(score(store, i, x, y, beta, factor)) with this store,\n"
     "move(i, x, y, w) to the first smallest score and inflate the field by\n"
     "rho once: where the field resolves inflate to CostField.inflate over\n"
     "this store's field core, by that core's inflate body with no call, else\n"
     "by calling the field's inflate(rho).\n"
     "Returns the winner's index, or -1 with nothing moved where a score is\n"
     "not finite.  A non-finite w or a store without macros raises\n"
     "ValueError before any draw; see stepplace._pycore.PlacementStore.round.\n"
     "The candidates and their scores are held as C doubles.  Where score is\n"
     "PlacementStore.score itself, each candidate is scored by its body with\n"
     "no call, and a later candidate whose lower bound (before its smoothed\n"
     "nets) reaches the least score before it is settled by that bound,\n"
     "where its score is provably finite: the winner, and so every bit, is\n"
     "that of the full scores."},
    {"step", (PyCFunction)(void (*)(void))PlacementStore_step, METH_FASTCALL,
     "step(score, state) -> RoundStats\n\n"
     "The placer state's next round: from state.round and the schedule\n"
     "state.config._schedule (a stepplace._pycore.Schedule) its delta, beta\n"
     "and w, then round(score, state.rng, ...) with them; sets state.round\n"
     "and state.last_choice and returns the stepplace._pycore.RoundStats row\n"
     "(round, netlength, overlap, delta, beta, w).\n"
     "Rounds exhausted, a negative state.round, a store without macros and a\n"
     "score that is not finite raise ValueError before anything moves; see\n"
     "stepplace._pycore.PlacementStore.step."},
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
              "y_min, y_max per macro (a round's proposals clamp into the bounds), nets the\n"
              "members of each net as macro indices, blockages x1, y1, x2, y2 per\n"
              "keep-out, each overlap area with one weighing blockage_weight in a\n"
              "score.  The footprints sit in a grid of cells of at least min_cell_x\n"
              "by min_cell_y, at most about count of them, the border cells reaching\n"
              "to infinity.  move commits a macro and grows the field under its\n"
              "meets.  stepplace._pycore.PlacementStore is its Python reference.",
    .tp_basicsize = sizeof(PlacementStore),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PlacementStore_new,
    .tp_dealloc = (destructor)PlacementStore_dealloc,
    .tp_methods = PlacementStore_methods,
    .tp_getset = PlacementStore_getset,
};

/* repr_line: sep.join(map(repr, values)) + "\n" for floats and ints, the
 * line every file writer of stepplace.io_cli writes (its Python reference
 * is _pycore.repr_line).
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

/* "00" to "99": the two digits of each value below 100 */
static const char DIGIT_PAIRS[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Writes the decimal digits of v at the end of the 20 bytes at end - 20,
 * two at a time; returns how many. */
static int
put_digits(char *end, uint64_t v)
{
    char *p = end;
    for (; v >= 100; v /= 100)
        memcpy(p -= 2, DIGIT_PAIRS + 2 * (v % 100), 2);
    if (v >= 10)
        memcpy(p -= 2, DIGIT_PAIRS + 2 * v, 2);
    else
        *--p = (char)('0' + v);
    return (int)(end - p);
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

/* A cursor's point: distance from the start, x, y, the cursor (2 * column,
 * + 1 downward) and its row; past the rows, INFINITY and cursor -1. */
typedef struct {
    double d, x, y;
    Py_ssize_t u, j;
} Probe;

/* What the legalizer has filled: its placed footprints, in a FootprintIndex
 * keyed by macro, and the keep-outs (x1, y1, x2, y2 each); and one block of
 * room for a search's tree, candidates and boxes. */
typedef struct {
    FootprintIndex index;
    Py_ssize_t n_blk, nx, ny;
    double *blk, *xs, *ys;
    Probe *tree;
    const double **near;
} Occupied;

/* A box that meets query: the footprint of the least key index_find finds
 * (whatever the cells), else the first keep-out that meets it, else NULL;
 * _pycore.legalize probes as this does. */
static const double *
probe_box(Occupied *s, const double *query)
{
    FootprintIndex *idx = &s->index;
    Py_ssize_t n = index_find(idx, query, -1), least = n ? idx->found[0] : -1;
    for (Py_ssize_t t = 1; t < n; t++)
        least = idx->found[t] < least ? idx->found[t] : least;
    if (n)
        return idx->boxes + 4 * least;
    for (const double *b = s->blk; b < s->blk + 4 * s->n_blk; b += 4)
        if (boxes_meet(query, b))
            return b;
    return NULL;
}

/* _pycore._below: the greatest center whose footprint, half either side, ends
 * at or below edge; -below(-edge, half) is the least that starts at or above it. */
static double
below(double edge, double half)
{
    double lo = edge - half, hi, mid;
    while (lo + half > edge)
        lo = nextafter(lo, -INFINITY);
    double step = py_max(py_max(fabs(lo), fabs(edge)) * 0x1p-52, 0x1p-1074);
    for (; (hi = lo + step) + half <= edge; step *= 2.0)
        lo = hi;
    while (lo < (mid = lo + (hi - lo) / 2.0) && mid < hi)
        *(mid + half <= edge ? &lo : &hi) = mid;
    return lo;
}

static int
compare_doubles(const void *a, const void *b)
{
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

/* _pycore._axis along axis k (0: x, 1: y) of the n boxes near, for the
 * macro m (half sides, bounds and start) and reach, written to v (room for
 * 3 + 2 * n); returns their number. */
static Py_ssize_t
axis_fill(double *v, const double *m, int k, const double *const *near, Py_ssize_t n,
          double reach)
{
    double lo = m[2 + 2 * k], hi = m[3 + 2 * k];
    Py_ssize_t len = 0, out = 0;
    for (Py_ssize_t t = -3; t < 2 * n; t++) {
        double c = t < 0 ? m[t == -3 ? 2 + 2 * k : t == -2 ? 3 + 2 * k : 6 + k]
                   : t % 2 ? -below(-near[t / 2][k + 2], m[k]) : below(near[t / 2][k], m[k]);
        if (lo <= c && c <= hi && fabs(c - m[6 + k]) <= reach)
            v[len++] = c + 0.0; /* a -0.0 becomes the 0.0 it equals */
    }
    qsort(v, (size_t)len, sizeof(double), compare_doubles);
    for (Py_ssize_t t = 0; t < len; t++)
        if (!out || v[t] != v[out - 1])
            v[out++] = v[t];
    return out;
}

/* bisect_left (bisect_right where right) over the n values a[i] + shift */
static Py_ssize_t
bisect(const double *a, Py_ssize_t n, double shift, double v, int right)
{
    Py_ssize_t lo = 0;
    while (lo < n) {
        Py_ssize_t mid = (lo + n) / 2;
        if (right ? !(v < a[mid] + shift) : a[mid] + shift < v)
            lo = mid + 1;
        else
            n = mid;
    }
    return lo;
}

/* Node i of the winner tree: the least of its children in (d, x, y) order */
static inline void
tree_pick(Probe *t, Py_ssize_t i)
{
    const Probe *a = &t[2 * i], *b = &t[2 * i + 1];
    t[i] = (b->d != a->d ? b->d < a->d : b->x != a->x ? b->x < a->x : b->y < a->y) ? *b : *a;
}

/* The point of cursor u of the macro m's search at row j. */
static Probe
cursor_point(const Occupied *s, const double *m, Py_ssize_t u, Py_ssize_t j)
{
    if (u >= 2 * s->nx || j < 0 || j >= s->ny)
        return (Probe){INFINITY, INFINITY, INFINITY, -1, j};
    double x = s->xs[u / 2], y = s->ys[j];
    return (Probe){fabs(x - m[6]) + fabs(y - m[7]), x, y, u, j};
}

/* _pycore._free_candidate for the macro m: the first free candidate in
 * (d, x, y) order, from a winner tree whose leaves from node n are the
 * cursors' points.  Writes it to out; returns 1, or 0 if none is free. */
static int
free_candidate(Occupied *s, const double *m, Probe *out)
{
    Py_ssize_t nx = s->nx, ny = s->ny, cj = bisect(s->ys, ny, 0.0, m[7], 0), n = 1;
    Probe *t = s->tree;
    while (n < 2 * nx)
        n *= 2;
    for (Py_ssize_t u = 0; u < n; u++)
        t[n + u] = cursor_point(s, m, u, u % 2 ? cj - 1 : cj);
    for (Py_ssize_t i = n - 1; i > 0; i--)
        tree_pick(t, i);
    for (Probe p = t[1]; p.u >= 0; p = t[1]) {
        const double box[4] = {p.x - m[0], p.y - m[1], p.x + m[0], p.y + m[1]};
        const double *blk = probe_box(s, box);
        if (blk == NULL) {
            /* a downward cursor's rows below at the same distance come first */
            Py_ssize_t k = p.j;
            while (p.u % 2 && k && cursor_point(s, m, p.u, k - 1).d == p.d)
                k--;
            while (k < p.j && probe_box(s, (const double[4]){box[0], s->ys[k] - m[1], box[2],
                                                             s->ys[k] + m[1]}))
                k++;
            *out = cursor_point(s, m, p.u, k);
            return 1;
        }
        /* blk covers rows lo .. hi - 1 of columns u1 / 2 .. (u - 1) / 2 */
        Py_ssize_t lo = bisect(s->ys, ny, m[1], blk[1], 1);
        Py_ssize_t hi = bisect(s->ys, ny, -m[1], blk[3], 0);
        Py_ssize_t u = 2 * bisect(s->xs, nx, m[0], blk[0], 1), u1 = u;
        for (; u < 2 * nx && s->xs[u / 2] - m[0] < blk[2]; u++)
            if (lo <= t[n + u].j && t[n + u].j < hi)
                t[n + u] = cursor_point(s, m, u, u % 2 ? lo - 1 : hi);
        for (Py_ssize_t a = (n + u1) / 2, b = (n + u - 1) / 2; a > 0; a /= 2, b /= 2)
            for (Py_ssize_t i = a; i <= b; i++)
                tree_pick(t, i);
    }
    return 0;
}

/* _pycore.legalize's search for the macro m (half sides, bounds, start):
 * the nearest free candidate within reach r of the boxes near the start, r
 * grown until the candidate is nearer than r or r spans the bounds.  Writes
 * the point to out; returns 1, or 0 if none is free. */
static int
nearest_free(Occupied *s, const double *m, Probe *out)
{
    double reach = 0.5 * (m[0] + m[1]), span = py_max(fabs(m[2] - m[6]), fabs(m[3] - m[6]))
                                               + py_max(fabs(m[4] - m[7]), fabs(m[5] - m[7]));
    /* past a point found, the next window holds it; it may hold nearer */
    for (int found = 0;; reach = found ? nextafter(out->d, INFINITY) : 2.0 * reach) {
        double ex = 1.25 * reach + m[0], ey = 1.25 * reach + m[1];
        const double window[4] = {m[6] - ex, m[7] - ey, m[6] + ex, m[7] + ey};
        Py_ssize_t n = 0, hits = index_find(&s->index, window, -1);
        for (Py_ssize_t t = 0; t < hits + s->n_blk; t++) {
            /* footprints in the window and keep-outs, grown within 1.25 * reach (L1) */
            const double *b = t < hits ? s->index.boxes + 4 * s->index.found[t]
                                       : s->blk + 4 * (t - hits);
            if (py_max(py_max(b[0] - m[0] - m[6], m[6] - (b[2] + m[0])), 0.0)
                    + py_max(py_max(b[1] - m[1] - m[7], m[7] - (b[3] + m[1])), 0.0)
                < 1.25 * reach)
                s->near[n++] = b;
        }
        s->nx = axis_fill(s->xs, m, 0, s->near, n, reach);
        s->ny = axis_fill(s->ys, m, 1, s->near, n, reach);
        found = free_candidate(s, m, out);
        if (!(reach < span) || (found && out->d < reach))
            return found;
    }
}

/* legalize(width, height, halves, bounds, centers, order, blockages): the
 * placing loop of placer.naive_legalize (see fieldcore_functions); its
 * Python reference is stepplace._pycore.legalize. */
static PyObject *
legalize(PyObject *module, PyObject *args)
{
    double width, height;
    PyObject *halves, *bounds, *centers, *order_obj, *blockages;
    if (!PyArg_ParseTuple(args, "ddOOOOO:legalize", &width, &height, &halves, &bounds,
                          &centers, &order_obj, &blockages))
        return NULL;
    Occupied s = {.blk = NULL};
    double *half = NULL, *bound = NULL, *center = NULL;
    Py_ssize_t count = -1, *order = NULL;
    PyObject *seq = NULL, *out = NULL;
    if (read_doubles(halves, 2, "macro", &count, &half, "halves") < 0
        || read_doubles(bounds, 4, "macro", &count, &bound, "bounds") < 0
        || read_doubles(centers, 2, "macro", &count, &center, "centers") < 0
        || (seq = PySequence_Fast(order_obj, "order must be a sequence")) == NULL)
        goto fail;
    int ok = PySequence_Fast_GET_SIZE(seq) == count;
    for (Py_ssize_t k = 0; k < 2 * count; k++)
        ok &= isfinite(half[k]) && half[k] > 0.0 && !isnan(center[k])
              && isfinite(bound[2 * k]) && isfinite(bound[2 * k + 1]);
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "legalize takes one index per macro, finite "
                                          "bounds, positive half sides and no NaN center");
        goto fail;
    }
    /* cells as large as the largest macro, as the placer's store has */
    double cell[2] = {count ? 0.0 : 1.0, count ? 0.0 : 1.0};
    for (Py_ssize_t k = 0; k < 2 * count; k++)
        cell[k % 2] = py_max(cell[k % 2], 2.0 * half[k]);
    if (space_init(&s.index, count, width, height, cell[0], cell[1], blockages, &s.n_blk,
                   &s.blk) < 0
        || (out = PyList_New(0)) == NULL)
        goto fail;
    /* the order's indices, each once: marked -1 in the index's marks, which
     * its queries, numbered from 1, leave as they are */
    if ((order = malloc((size_t)(count ? count : 1) * sizeof(Py_ssize_t))) == NULL
        && PyErr_NoMemory() == NULL)
        goto fail;
    for (Py_ssize_t t = 0; t < count; t++) {
        Py_ssize_t k = order[t] = index_key(PySequence_Fast_GET_ITEM(seq, t), count,
                                            "index", "macros");
        if (k < 0)
            goto fail;
        if (s.index.mark[k] < 0) {
            PyErr_Format(PyExc_ValueError, "order repeats index %zd", k);
            goto fail;
        }
        s.index.mark[k] = -1;
    }
    /* candidates per axis: the start, two bounds and two per box */
    Py_ssize_t room = 3 + 2 * (count + s.n_blk);
    s.tree = malloc((size_t)room * (8 * sizeof(Probe) + 3 * sizeof(double)));
    if (s.tree == NULL && PyErr_NoMemory() == NULL)
        goto fail;
    s.xs = (double *)(s.tree + 8 * room);
    s.ys = s.xs + room;
    s.near = (const double **)(s.ys + room);
    for (Py_ssize_t t = 0; t < count; t++) {
        Py_ssize_t k = order[t];
        const double *h = half + 2 * k, *b = bound + 4 * k, *c = center + 2 * k;
        /* the start clamped into the bounds, as placer._clamped clamps it */
        const double m[8] = {h[0], h[1], b[0], b[1], b[2], b[3],
                             py_min(py_max(c[0], b[0]), b[1]), py_min(py_max(c[1], b[2]), b[3])};
        Probe at = {.x = m[6], .y = m[7]};
        const double start[4] = {at.x - m[0], at.y - m[1], at.x + m[0], at.y + m[1]};
        if (probe_box(&s, start) != NULL && !nearest_free(&s, m, &at))
            break;
        const double box[4] = {at.x - m[0], at.y - m[1], at.x + m[0], at.y + m[1]};
        PyObject *point = Py_BuildValue("(dd)", at.x, at.y);
        int err = point == NULL || index_put(&s.index, k, box) < 0
                  || PyList_Append(out, point) < 0;
        Py_XDECREF(point);
        if (err)
            goto fail;
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    index_free(&s.index);
    free(s.blk);
    free(s.tree);
    free(half);
    free(bound);
    free(center);
    free(order);
    Py_XDECREF(seq);
    return out;
}

/* _own_inflate(f): holds f, stepfield.CostField.inflate, as own_inflate. */
static PyObject *
set_own_inflate(PyObject *module, PyObject *f)
{
    Py_XSETREF(own_inflate, Py_NewRef(f));
    Py_RETURN_NONE;
}

/* _draws_in_place(): whether a round may draw from a random.Random's own
 * words, the layout guard run first where it has not reached a verdict. */
static PyObject *
draws_in_place(PyObject *module, PyObject *unused)
{
#ifdef DRAWS_IN_PLACE
    int ready = mt_ready();
    return ready < 0 ? NULL : PyBool_FromLong(ready);
#else
    Py_RETURN_FALSE;
#endif
}

static PyMethodDef fieldcore_functions[] = {
    {"_own_inflate", set_own_inflate, METH_O,
     "_own_inflate(f)\n\n"
     "Hands the core stepplace.stepfield.CostField.inflate, once, as that\n"
     "module defines it: a round whose field resolves inflate to f runs its\n"
     "body, the field core's inflate, with no call.  Any other inflate, put on\n"
     "a subclass, the class or the instance, is called once per round."},
    {"_draws_in_place", draws_in_place, METH_NOARGS,
     "_draws_in_place() -> bool\n\n"
     "Whether a round draws the macro and its candidates of a plain\n"
     "random.Random from the generator's own Mersenne Twister words, in\n"
     "place: on CPython 3.10-3.13 with the GIL, once a guard (run here where\n"
     "it has not reached a verdict) found _random.Random laid out and drawing\n"
     "as this core reads it.  Where False, every round draws by method calls.\n"
     "An error that stops the guard, such as MemoryError, is raised here and\n"
     "leaves the verdict to the next ask."},
    {"legalize", legalize, METH_VARARGS,
     "legalize(width, height, halves, bounds, centers, order, blockages) -> list\n\n"
     "Places the macros in order, each clear of the footprints placed\n"
     "before it and of the keep-outs (x1, y1, x2, y2 each, in a width x\n"
     "height area): halves, bounds and centers hold 2, 4 and 2 doubles per\n"
     "macro by index, order each index once.  Each start is the center\n"
     "clamped into the bounds; returns, in order, the start where it is free,\n"
     "else the nearest free center; stops before the first macro with none\n"
     "(_pycore.legalize).  The nearest holds where every footprint is\n"
     "non-empty; a blocker's jump may pass an empty one."},
    {"repr_line", (PyCFunction)(void (*)(void))repr_line, METH_FASTCALL,
     "repr_line(values, sep) -> str\n\n"
     "sep.join(map(repr, values)) + '\\n' for a sequence of floats and ints,\n"
     "with repr's bytes; TypeError for any other value.  A float's digits\n"
     "come from 128-bit integers where that is exact and unambiguous, else\n"
     "from the interpreter's repr; see stepplace._pycore.repr_line."},
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
            || (str_randbelow = PyUnicode_InternFromString("_randbelow")) == NULL
            || (str_inflate = PyUnicode_InternFromString("inflate")) == NULL
            || (str_core = PyUnicode_InternFromString("core")) == NULL
            || (str_round = PyUnicode_InternFromString("round")) == NULL
            || (str_rng = PyUnicode_InternFromString("rng")) == NULL
            || (str_last_choice = PyUnicode_InternFromString("last_choice")) == NULL
            || (str_config = PyUnicode_InternFromString("config")) == NULL
            || (str_schedule = PyUnicode_InternFromString("_schedule")) == NULL)) {
        Py_CLEAR(str_random);
        Py_CLEAR(one_half);
        Py_CLEAR(str_getrandbits);
        Py_CLEAR(str_randrange);
        Py_CLEAR(str_randbelow);
        Py_CLEAR(str_inflate);
        Py_CLEAR(str_core);
        Py_CLEAR(str_round);
        Py_CLEAR(str_rng);
        Py_CLEAR(str_last_choice);
        Py_CLEAR(str_config);
        Py_CLEAR(str_schedule);
        return NULL;
    }
    if (round_stats == NULL) {
        PyObject *mod = PyImport_ImportModule("stepplace._pycore");
        PyObject *row = mod ? PyObject_GetAttrString(mod, "RoundStats") : NULL;
        Py_XDECREF(mod);
        if (row == NULL)
            return NULL;
        if (!PyType_Check(row) || !PyType_IsSubtype((PyTypeObject *)row, &PyTuple_Type)) {
            PyErr_SetString(PyExc_TypeError, "stepplace._pycore.RoundStats is no tuple type");
            Py_DECREF(row);
            return NULL;
        }
        round_stats = (PyTypeObject *)row;
    }
    PyObject *mod = PyModule_Create(&fieldcoremodule);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddType(mod, &FieldCoreType) < 0
        || PyModule_AddType(mod, &PlacementStoreType) < 0
        || (score_method == NULL
            && (score_method = PyObject_GetAttrString((PyObject *)&PlacementStoreType,
                                                      "score")) == NULL)) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
