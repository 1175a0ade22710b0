/* Compiled simulation core for the "compiled" engine backend.
 *
 * One Core object holds the lowered state of every SM of one run: the
 * static per-instruction metadata table, the dynamic traces (deduplicated
 * by identity), flat per-warp / per-CTA / per-scheduler records, and one
 * *global* clock.  Core.resume(value) runs the uninstrumented cycle loop of
 * GPU._run_event -- every SM stepped in sm_id order per executed cycle,
 * each step a line-for-line C transcription of
 * StreamingMultiprocessor._step_fast, then the per-cycle idle and level
 * accounting, the idle jump to the minimum next event, timeout and
 * deadlock -- until it reaches an *op*: something only the real Python
 * objects may do.  It then returns an op descriptor; the driver
 * (repro.sim.compiled) serves the op and calls resume() again, which
 * completes the op and continues.  Ops come out in the dense engine's
 * global order (cycle, sm_id, program order):
 *
 *   LOAD / STORE  a shared memory-hierarchy access (resume() takes the
 *                 load's completion cycle);
 *   EXIT          a warp EXIT: the _finish_warp -> retire -> policy chain;
 *   SETTLE        now reached the SM's earliest transit_until;
 *   TICK          now reached the policy's cached wake_time;
 *   IDLE          a busy SM issued nothing, is past its idle cooldown and
 *                 has at least one CTA stalled_active_ctas would return.
 *
 * This works without coroutines because the control flow after every op
 * is fixed: each SM step is a small phase machine (settle, tick, issue,
 * idle) and the issue loop's continuation after a memory op or EXIT is
 * always "complete the op, promote a scan-path warp to current, count the
 * issue, move to the next scheduler".
 *
 * After each policy op the driver pushes the SM's mirrors (levels, dirty
 * flag, earliest transit, wake_time, next_event, idle cooldown, RF-blocked
 * flag, grid remaining) and, where the op changed them, the scheduler
 * membership and active-CTA list.  The core decides the skipped calls
 * itself, exactly: on_tick is an observable no-op before wake_time, the
 * settle scan before the earliest transit, and the base on_idle without a
 * park candidate only arms its 16-cycle cooldown, which the core does on
 * its own state.
 *
 * Per-scheduler state is a flat member array scanned in attach order --
 * observably identical to the Python ready/blocked buckets: the buckets
 * only reorder *consideration* of warps that could not issue anyway,
 * consideration order among ready warps is always ascending sched_seq
 * (== attach order), and the failed-scan sleep fold reduces to the min
 * blocked_until over every attached warp.
 *
 * The level integrals and the idle / RF-depletion counts are accumulated
 * as int64 sums and merged into the Python counters once at the end:
 * every term is an exact integer and the totals stay far below 2^53, so
 * one float add of a total is bit-identical to the per-segment float adds
 * the other engines perform.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define CK_FOREVER (1LL << 60)

/* Warp states (match repro.sim.warp.WarpState order used by the driver). */
#define W_RUNNABLE 0
#define W_BARRIER 1
#define W_FINISHED 2

/* resume() descriptor kinds. */
#define OP_DONE 0
#define OP_LOAD 1
#define OP_STORE 2
#define OP_EXIT 3
#define OP_SETTLE 4
#define OP_TICK 5
#define OP_IDLE 6
#define OP_DEADLOCK 7

/* Per-SM step phases within one cycle. */
#define PH_SETTLE 0
#define PH_TICK 1
#define PH_SCAN_START 2
#define PH_SCAN 3
#define PH_IDLE 4
#define PH_END 5

/* The base on_idle cooldown after an idle scan found nothing to do. */
#define IDLE_COOLDOWN 16

typedef struct {
    int32_t nsrc;
    int32_t dest;      /* -1 when the instruction writes no register */
    int32_t pat;       /* 0 STREAM / 1 REUSE / 2 SHARED_WS / -1 */
    int32_t fkind;     /* meta[8]: 0 fixed-lat, 1 LDG, 2 STG, 3 BAR,
                          4 EXIT, 5 no-op */
    int64_t flat;      /* meta[9]: total fixed latency for fkind 0 */
    int32_t src_off;   /* offset into Core.srcs */
} CMeta;

typedef struct {
    int32_t *idx;
    Py_ssize_t len;
} CTrace;

typedef struct {
    int32_t trace;          /* index into Core.traces */
    int32_t cta;            /* index into Core.ctas */
    int32_t state;
    int64_t pos;
    int64_t blocked_until;
    int64_t peak_ready;
    int64_t chk_pos;
    int64_t chk_ready;
    int64_t stream_counter;
    int64_t reuse_counter;
    int64_t shared_counter;
    int64_t stream_base;
    int64_t reuse_base;
    int64_t global_warp_id;
    int64_t *ready_at;      /* Core.nregs entries */
} CWarp;

typedef struct {
    int32_t *warps;         /* member wslots (construction order) */
    int32_t nwarps;
    int32_t cap;
    int64_t cta_id;
    int64_t barrier_arrived;
    int64_t first_issue;    /* -1 == None */
    int32_t stall_recorded;
} CCta;

typedef struct {
    int32_t *members;       /* wslots in sched_seq (attach) order */
    int32_t nmembers;
    int32_t cap;
    int64_t sleep_until;
    int32_t current;        /* wslot or -1 */
    PyObject *obj;          /* the GTOScheduler */
} CSched;

typedef struct {
    int32_t phase;          /* PH_* within the current cycle */
    int32_t sched_idx;      /* scheduler to continue from */
    int32_t issued;         /* issues this cycle (_last_step_issued) */
    int64_t sched_sleep;    /* sm._sched_sleep */
    /* Parked issue-loop operation. */
    int32_t pend_kind;      /* 0 none / OP_LOAD / OP_STORE / OP_EXIT */
    int32_t pend_warp;
    int32_t pend_dest;
    int32_t pend_from_scan;
    int32_t pend_sched;
    /* Active CTA slots, in sm.active_ctas order (set at sync points). */
    int32_t *active;
    int32_t nactive;
    int32_t activecap;
    /* Mirrors of Python state, pushed after every policy op. */
    int32_t needs_tick;
    int32_t needs_idle;
    int32_t lvl_dirty;
    int32_t blocked_on_rf;
    int64_t active_count;   /* len(sm.active_ctas) */
    int64_t pend_count;     /* len(pending_ctas) + len(transit_ctas) */
    int64_t active_warps;   /* sm._active_warps */
    int64_t transit_min;    /* sm._transit_min */
    int64_t wake_time;      /* policy.wake_time, cached after a hook */
    int64_t next_event;     /* policy.next_event, cached after a hook */
    int64_t next_idle;      /* policy._next_idle_check */
    /* Accounting (int64, merged into SMStats once at the end). */
    int64_t seg_start;
    int64_t seg_active;
    int64_t seg_pend;
    int64_t seg_warps;
    int64_t cta_sum;
    int64_t pend_sum;
    int64_t warp_sum;
    int64_t max_resident;
    int64_t idle;
    int64_t rf;
    int64_t *stalls;        /* ordered stall latencies */
    int32_t nstalls;
    int32_t stallcap;
    PyObject *obj;          /* the StreamingMultiprocessor */
} CSm;

typedef struct {
    PyObject_HEAD
    int32_t num_sms;
    int32_t nsched;
    int32_t nregs;
    int64_t thresh;
    int64_t reuse_spatial;
    int64_t reuse_lines;
    int64_t shared_lines;
    int64_t shared_base;
    int64_t max_cycles;
    int64_t min_park;
    CMeta *meta;
    int32_t nmeta;
    int32_t *srcs;
    CTrace *traces;
    int32_t ntraces, tracecap;
    CWarp *warps;
    int32_t nwarps, warpcap;
    CCta *ctas;
    int32_t nctas, ctacap;
    /* The Python objects behind the records, for the in-place write-back
     * and re-import: object arrays parallel to warps / ctas, and
     * object -> slot dicts (identity-hashed). */
    PyObject **warp_objs;
    int32_t warpobjcap;
    PyObject **cta_objs;
    int32_t ctaobjcap;
    PyObject *warp_slots;
    PyObject *cta_slots;
    PyObject *states;       /* the WarpState members, by C state id */
    CSm *sms;
    CSched *scheds;         /* num_sms * nsched, row-major by SM */
    /* The global clock. */
    int64_t now;
    int64_t grid_remaining;
    int32_t cur_sm;         /* SM being stepped this cycle */
    int32_t any_issued;
    int32_t cycle_open;     /* 0: termination checks pending */
    int32_t status;         /* 0 running, 1 done */
} CoreObject;

/* ------------------------------------------------------------------ */
static int
grow(void **buf, int32_t *cap, int32_t need, size_t itemsize)
{
    if (need <= *cap)
        return 0;
    int32_t ncap = *cap ? *cap : 16;
    while (ncap < need)
        ncap *= 2;
    void *nbuf = PyMem_Realloc(*buf, (size_t)ncap * itemsize);
    if (nbuf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = nbuf;
    *cap = ncap;
    return 0;
}

static void
core_dealloc(CoreObject *self)
{
    int32_t i;
    if (self->traces) {
        for (i = 0; i < self->ntraces; i++)
            PyMem_Free(self->traces[i].idx);
        PyMem_Free(self->traces);
    }
    if (self->warps) {
        for (i = 0; i < self->nwarps; i++) {
            PyMem_Free(self->warps[i].ready_at);
            Py_XDECREF(self->warp_objs[i]);
        }
        PyMem_Free(self->warps);
    }
    PyMem_Free(self->warp_objs);
    if (self->ctas) {
        for (i = 0; i < self->nctas; i++) {
            PyMem_Free(self->ctas[i].warps);
            Py_XDECREF(self->cta_objs[i]);
        }
        PyMem_Free(self->ctas);
    }
    PyMem_Free(self->cta_objs);
    if (self->scheds) {
        for (i = 0; i < self->num_sms * self->nsched; i++) {
            PyMem_Free(self->scheds[i].members);
            Py_XDECREF(self->scheds[i].obj);
        }
        PyMem_Free(self->scheds);
    }
    if (self->sms) {
        for (i = 0; i < self->num_sms; i++) {
            PyMem_Free(self->sms[i].stalls);
            PyMem_Free(self->sms[i].active);
            Py_XDECREF(self->sms[i].obj);
        }
        PyMem_Free(self->sms);
    }
    Py_XDECREF(self->warp_slots);
    Py_XDECREF(self->cta_slots);
    Py_XDECREF(self->states);
    PyMem_Free(self->meta);
    PyMem_Free(self->srcs);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
core_init(CoreObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *meta_list, *states;
    long long thresh, reuse_spatial, reuse_lines, shared_lines;
    long long shared_base, max_cycles, min_park;
    int num_sms, nsched, nregs;
    if (self->meta != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Core already initialized");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "iiiLLLLLLLOO!",
                          &num_sms, &nsched, &nregs, &thresh,
                          &reuse_spatial, &reuse_lines, &shared_lines,
                          &shared_base, &max_cycles, &min_park, &meta_list,
                          &PyTuple_Type, &states))
        return -1;
    if (PyTuple_GET_SIZE(states) != 3) {
        PyErr_SetString(PyExc_ValueError, "states must have 3 members");
        return -1;
    }
    Py_XSETREF(self->warp_slots, PyDict_New());
    Py_XSETREF(self->cta_slots, PyDict_New());
    if (self->warp_slots == NULL || self->cta_slots == NULL)
        return -1;
    Py_INCREF(states);
    Py_XSETREF(self->states, states);
    if (num_sms <= 0 || nsched <= 0 || nregs <= 0
            || reuse_spatial <= 0 || reuse_lines <= 0 || shared_lines <= 0) {
        PyErr_SetString(PyExc_ValueError, "sizes must be positive");
        return -1;
    }
    self->num_sms = num_sms;
    self->nsched = nsched;
    self->nregs = nregs;
    self->thresh = thresh;
    self->reuse_spatial = reuse_spatial;
    self->reuse_lines = reuse_lines;
    self->shared_lines = shared_lines;
    self->shared_base = shared_base;
    self->max_cycles = max_cycles;
    self->min_park = min_park;

    PyObject *seq = PySequence_Fast(meta_list, "meta must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t nmeta = PySequence_Fast_GET_SIZE(seq);
    Py_ssize_t total_srcs = 0, i;
    for (i = 0; i < nmeta; i++) {
        PyObject *ent = PySequence_Fast_GET_ITEM(seq, i);
        PyObject *srcs = PyTuple_GetItem(ent, 5);
        if (srcs == NULL) {
            Py_DECREF(seq);
            return -1;
        }
        total_srcs += PySequence_Size(srcs);
    }
    self->meta = PyMem_Calloc(nmeta ? (size_t)nmeta : 1, sizeof(CMeta));
    self->srcs = PyMem_Calloc(total_srcs ? (size_t)total_srcs : 1,
                              sizeof(int32_t));
    if (self->meta == NULL || self->srcs == NULL) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return -1;
    }
    self->nmeta = (int32_t)nmeta;
    int32_t off = 0;
    for (i = 0; i < nmeta; i++) {
        PyObject *ent = PySequence_Fast_GET_ITEM(seq, i);
        CMeta *m = &self->meta[i];
        m->nsrc = (int32_t)PyLong_AsLong(PyTuple_GetItem(ent, 0));
        m->dest = (int32_t)PyLong_AsLong(PyTuple_GetItem(ent, 1));
        m->pat = (int32_t)PyLong_AsLong(PyTuple_GetItem(ent, 2));
        m->fkind = (int32_t)PyLong_AsLong(PyTuple_GetItem(ent, 3));
        m->flat = PyLong_AsLongLong(PyTuple_GetItem(ent, 4));
        m->src_off = off;
        PyObject *srcs = PyTuple_GetItem(ent, 5);
        Py_ssize_t nsrc = PySequence_Size(srcs), j;
        for (j = 0; j < nsrc; j++) {
            PyObject *reg = PySequence_GetItem(srcs, j);
            long r = reg == NULL ? -1 : PyLong_AsLong(reg);
            Py_XDECREF(reg);
            if (r < 0 || r >= nregs) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_ValueError,
                                    "source register out of range");
                Py_DECREF(seq);
                return -1;
            }
            self->srcs[off++] = (int32_t)r;
        }
        if (m->nsrc != (int32_t)nsrc
                || (m->dest >= nregs) || (m->dest < 0 && m->fkind <= 1)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "malformed meta entry");
        }
        if (PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);

    self->sms = PyMem_Calloc((size_t)num_sms, sizeof(CSm));
    self->scheds = PyMem_Calloc((size_t)num_sms * nsched, sizeof(CSched));
    if (self->sms == NULL || self->scheds == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int32_t s;
    for (s = 0; s < num_sms; s++) {
        CSm *sm = &self->sms[s];
        sm->lvl_dirty = 1;
        sm->transit_min = CK_FOREVER;
        sm->next_event = CK_FOREVER;
    }
    for (s = 0; s < num_sms * nsched; s++)
        self->scheds[s].current = -1;
    return 0;
}

static CSm *
sm_arg(CoreObject *self, int sm_id)
{
    if (self->sms == NULL || sm_id < 0 || sm_id >= self->num_sms) {
        PyErr_SetString(PyExc_ValueError, "bad sm index");
        return NULL;
    }
    return &self->sms[sm_id];
}

/* ------------------------------------------------------------------ */
/* Lowering (Python -> C)                                              */

static PyObject *
core_add_trace(CoreObject *self, PyObject *arg)
{
    PyObject *seq = PySequence_Fast(arg, "trace must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq), i;
    int32_t *idx = PyMem_Malloc((len ? (size_t)len : 1) * sizeof(int32_t));
    if (idx == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    for (i = 0; i < len; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v < 0 || v >= self->nmeta) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "trace index out of meta range");
            PyMem_Free(idx);
            Py_DECREF(seq);
            return NULL;
        }
        idx[i] = (int32_t)v;
    }
    Py_DECREF(seq);
    if (grow((void **)&self->traces, &self->tracecap, self->ntraces + 1,
             sizeof(CTrace))) {
        PyMem_Free(idx);
        return NULL;
    }
    CTrace *t = &self->traces[self->ntraces];
    t->idx = idx;
    t->len = len;
    return PyLong_FromLong(self->ntraces++);
}

/* Interned attribute names of the Python objects the core reads and
 * writes (set up at module init). */
static PyObject *s_pos, *s_state, *s_blocked_until, *s_barrier_arrived,
    *s_first_issue_cycle, *s_stall_recorded, *s_sleep_until, *s_current,
    *s_dirty, *s_sched_sleep, *s_warps, *s_active_ctas;

static int
remember(PyObject *dict, PyObject ***objs, int32_t *cap, int32_t slot,
         PyObject *obj)
{
    if (grow((void **)objs, cap, slot + 1, sizeof(PyObject *)))
        return -1;
    PyObject *key = PyLong_FromLong(slot);
    if (key == NULL || PyDict_SetItem(dict, obj, key) < 0) {
        Py_XDECREF(key);
        return -1;
    }
    Py_DECREF(key);
    Py_INCREF(obj);
    (*objs)[slot] = obj;
    return 0;
}

static int32_t
slot_of(PyObject *dict, PyObject *obj, const char *what)
{
    PyObject *v = PyDict_GetItemWithError(dict, obj);
    if (v == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_KeyError, "%s was never lowered", what);
        return -1;
    }
    return (int32_t)PyLong_AsLong(v);
}

static PyObject *
core_new_cta(CoreObject *self, PyObject *args)
{
    PyObject *obj;
    long long cta_id;
    if (!PyArg_ParseTuple(args, "OL", &obj, &cta_id))
        return NULL;
    if (grow((void **)&self->ctas, &self->ctacap, self->nctas + 1,
             sizeof(CCta))
            || remember(self->cta_slots, &self->cta_objs, &self->ctaobjcap,
                        self->nctas, obj))
        return NULL;
    CCta *c = &self->ctas[self->nctas];
    memset(c, 0, sizeof(*c));
    c->cta_id = cta_id;
    c->first_issue = -1;
    return PyLong_FromLong(self->nctas++);
}

static PyObject *
core_new_warp(CoreObject *self, PyObject *args)
{
    PyObject *obj;
    int cslot, trace;
    long long gid;
    if (!PyArg_ParseTuple(args, "OiiL", &obj, &cslot, &trace, &gid))
        return NULL;
    if (cslot < 0 || cslot >= self->nctas
            || trace < 0 || trace >= self->ntraces) {
        PyErr_SetString(PyExc_ValueError, "bad cta/trace slot");
        return NULL;
    }
    if (grow((void **)&self->warps, &self->warpcap, self->nwarps + 1,
             sizeof(CWarp)))
        return NULL;
    CCta *c = &self->ctas[cslot];
    if (grow((void **)&c->warps, &c->cap, c->nwarps + 1, sizeof(int32_t)))
        return NULL;
    CWarp *w = &self->warps[self->nwarps];
    memset(w, 0, sizeof(*w));
    w->ready_at = PyMem_Calloc((size_t)self->nregs, sizeof(int64_t));
    if (w->ready_at == NULL)
        return PyErr_NoMemory();
    if (remember(self->warp_slots, &self->warp_objs, &self->warpobjcap,
                 self->nwarps, obj)) {
        PyMem_Free(w->ready_at);
        w->ready_at = NULL;
        return NULL;
    }
    w->trace = trace;
    w->cta = cslot;
    w->state = W_RUNNABLE;
    w->chk_pos = -1;
    w->global_warp_id = gid;
    w->stream_base = (gid & 0xFFFF) << 26;
    w->reuse_base = ((c->cta_id & 0xFFFF) << 18) | (1LL << 42);
    c->warps[c->nwarps++] = self->nwarps;
    return PyLong_FromLong(self->nwarps++);
}

static PyObject *
core_set_policy(CoreObject *self, PyObject *args)
{
    /* Bind one SM: its Python object, its schedulers and the policy's
     * hook flags. */
    int sm_id, needs_tick, needs_idle;
    PyObject *obj, *scheds;
    if (!PyArg_ParseTuple(args, "iOO!pp", &sm_id, &obj, &PyList_Type,
                          &scheds, &needs_tick, &needs_idle))
        return NULL;
    CSm *sm = sm_arg(self, sm_id);
    if (sm == NULL)
        return NULL;
    if (PyList_GET_SIZE(scheds) != self->nsched) {
        PyErr_SetString(PyExc_ValueError, "wrong scheduler count");
        return NULL;
    }
    int k;
    for (k = 0; k < self->nsched; k++) {
        CSched *sc = &self->scheds[(size_t)sm_id * self->nsched + k];
        PyObject *o = PyList_GET_ITEM(scheds, k);
        Py_INCREF(o);
        Py_XSETREF(sc->obj, o);
    }
    Py_INCREF(obj);
    Py_XSETREF(sm->obj, obj);
    sm->needs_tick = needs_tick;
    sm->needs_idle = needs_idle;
    Py_RETURN_NONE;
}

static int
get_ll(PyObject *obj, PyObject *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    long long x = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = x;
    return 0;
}

static int
set_ll(PyObject *obj, PyObject *name, int64_t value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return r;
}

/* Fill a slot array from a list attribute of lowered objects. */
static int
import_slots(PyObject *owner, PyObject *name, PyObject *dict,
             int32_t **buf, int32_t *cap, int32_t *n, const char *what)
{
    PyObject *list = PyObject_GetAttr(owner, name);
    if (list == NULL)
        return -1;
    if (!PyList_Check(list)) {
        Py_DECREF(list);
        PyErr_Format(PyExc_TypeError, "%s must be a list", what);
        return -1;
    }
    Py_ssize_t len = PyList_GET_SIZE(list), i;
    if (grow((void **)buf, cap, (int32_t)len, sizeof(int32_t))) {
        Py_DECREF(list);
        return -1;
    }
    for (i = 0; i < len; i++) {
        int32_t slot = slot_of(dict, PyList_GET_ITEM(list, i), what);
        if (slot < 0) {
            Py_DECREF(list);
            return -1;
        }
        (*buf)[i] = slot;
    }
    Py_DECREF(list);
    *n = (int32_t)len;
    return 0;
}

static PyObject *
core_sync(CoreObject *self, PyObject *arg)
{
    /* Re-import one SM's scheduler state (members in attach order, sleep
     * caches, current warps) and active-CTA list from the Python objects
     * after an op changed them. */
    long sm_id = PyLong_AsLong(arg);
    if (sm_id == -1 && PyErr_Occurred())
        return NULL;
    CSm *sm = sm_arg(self, (int)sm_id);
    if (sm == NULL)
        return NULL;
    if (sm->obj == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "SM not bound");
        return NULL;
    }
    if (get_ll(sm->obj, s_sched_sleep, &sm->sched_sleep)
            || import_slots(sm->obj, s_active_ctas, self->cta_slots,
                            &sm->active, &sm->activecap, &sm->nactive,
                            "active CTA"))
        return NULL;
    int k;
    for (k = 0; k < self->nsched; k++) {
        CSched *sc = &self->scheds[(size_t)sm_id * self->nsched + k];
        if (import_slots(sc->obj, s_warps, self->warp_slots, &sc->members,
                         &sc->cap, &sc->nmembers, "scheduler warp")
                || get_ll(sc->obj, s_sleep_until, &sc->sleep_until))
            return NULL;
        PyObject *cur = PyObject_GetAttr(sc->obj, s_current);
        if (cur == NULL)
            return NULL;
        sc->current = cur == Py_None ? -1
            : slot_of(self->warp_slots, cur, "current warp");
        Py_DECREF(cur);
        if (sc->current < -1 || PyErr_Occurred())
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
core_mirror(CoreObject *self, PyObject *args)
{
    int sm_id, dirty, blocked;
    long long active, pend, warps, transit_min, wake_time, next_event;
    long long next_idle, grid;
    if (!PyArg_ParseTuple(args, "iLLLpLLLLpL", &sm_id, &active, &pend,
                          &warps, &dirty, &transit_min, &wake_time,
                          &next_event, &next_idle, &blocked, &grid))
        return NULL;
    CSm *sm = sm_arg(self, sm_id);
    if (sm == NULL)
        return NULL;
    sm->active_count = active;
    sm->pend_count = pend;
    sm->active_warps = warps;
    if (dirty)
        sm->lvl_dirty = 1;
    sm->transit_min = transit_min;
    if (wake_time >= 0)
        sm->wake_time = wake_time;
    sm->next_event = next_event;
    if (next_idle >= 0)
        sm->next_idle = next_idle;
    sm->blocked_on_rf = blocked;
    self->grid_remaining = grid;
    Py_RETURN_NONE;
}

static int
state_id(CoreObject *self, PyObject *state)
{
    int i;
    for (i = 0; i < 3; i++)
        if (PyTuple_GET_ITEM(self->states, i) == state)
            return i;
    PyErr_SetString(PyExc_ValueError, "unknown warp state");
    return -1;
}

static PyObject *
core_reimport_cta(CoreObject *self, PyObject *obj)
{
    /* After the EXIT chain: a CTA's barrier count and its warps' states
     * and blocked_until (a finish or a barrier release changes them). */
    int32_t cslot = slot_of(self->cta_slots, obj, "CTA");
    if (cslot < 0)
        return NULL;
    CCta *c = &self->ctas[cslot];
    if (get_ll(obj, s_barrier_arrived, &c->barrier_arrived))
        return NULL;
    int32_t i;
    for (i = 0; i < c->nwarps; i++) {
        CWarp *w = &self->warps[c->warps[i]];
        PyObject *wobj = self->warp_objs[c->warps[i]];
        PyObject *st = PyObject_GetAttr(wobj, s_state);
        if (st == NULL)
            return NULL;
        int id = state_id(self, st);
        Py_DECREF(st);
        if (id < 0 || get_ll(wobj, s_blocked_until, &w->blocked_until))
            return NULL;
        w->state = id;
    }
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Write-back (C -> Python)                                            */

static PyObject *
core_export(CoreObject *self, PyObject *args)
{
    /* Write C's view onto the Python objects: the SM's sleep cache and
     * schedulers (sleep, current, buckets marked dirty), and with
     * ``with_warps`` its active CTAs (barrier count, first issue, stall
     * marker) and their warps (pos, state, blocked_until). */
    int sm_id, with_warps;
    if (!PyArg_ParseTuple(args, "ip", &sm_id, &with_warps))
        return NULL;
    CSm *sm = sm_arg(self, sm_id);
    if (sm == NULL)
        return NULL;
    if (sm->obj == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "SM not bound");
        return NULL;
    }
    CSched *scheds = &self->scheds[(size_t)sm_id * self->nsched];
    int32_t a, i;
    if (set_ll(sm->obj, s_sched_sleep, sm->sched_sleep))
        return NULL;
    for (i = 0; i < self->nsched; i++) {
        CSched *sc = &scheds[i];
        PyObject *cur = sc->current < 0 ? Py_None
                                        : self->warp_objs[sc->current];
        if (set_ll(sc->obj, s_sleep_until, sc->sleep_until)
                || PyObject_SetAttr(sc->obj, s_current, cur)
                || PyObject_SetAttr(sc->obj, s_dirty, Py_True))
            return NULL;
    }
    if (!with_warps)
        Py_RETURN_NONE;
    for (a = 0; a < sm->nactive; a++) {
        int32_t cslot = sm->active[a];
        CCta *c = &self->ctas[cslot];
        PyObject *cobj = self->cta_objs[cslot];
        PyObject *first = c->first_issue < 0 ? NULL
            : PyLong_FromLongLong(c->first_issue);
        if (c->first_issue >= 0 && first == NULL)
            return NULL;
        int r = PyObject_SetAttr(cobj, s_first_issue_cycle,
                                 first ? first : Py_None);
        Py_XDECREF(first);
        if (r || set_ll(cobj, s_barrier_arrived, c->barrier_arrived)
                || PyObject_SetAttr(cobj, s_stall_recorded,
                                    c->stall_recorded ? Py_True : Py_False))
            return NULL;
        for (i = 0; i < c->nwarps; i++) {
            CWarp *w = &self->warps[c->warps[i]];
            PyObject *wobj = self->warp_objs[c->warps[i]];
            if (set_ll(wobj, s_pos, w->pos)
                    || PyObject_SetAttr(wobj, s_state,
                                        PyTuple_GET_ITEM(self->states,
                                                         w->state))
                    || set_ll(wobj, s_blocked_until, w->blocked_until))
                return NULL;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
core_finish(CoreObject *self, PyObject *arg)
{
    /* (cta_sum, pending_sum, warp_sum, max_resident, idle, rf_depletion,
     *  next_idle_check, stall latencies); drains the stall log. */
    long sm_id = PyLong_AsLong(arg);
    if (sm_id == -1 && PyErr_Occurred())
        return NULL;
    CSm *sm = sm_arg(self, (int)sm_id);
    if (sm == NULL)
        return NULL;
    PyObject *stalls = PyList_New(sm->nstalls);
    if (stalls == NULL)
        return NULL;
    int32_t i;
    for (i = 0; i < sm->nstalls; i++) {
        PyObject *v = PyLong_FromLongLong(sm->stalls[i]);
        if (v == NULL) {
            Py_DECREF(stalls);
            return NULL;
        }
        PyList_SET_ITEM(stalls, i, v);
    }
    sm->nstalls = 0;
    return Py_BuildValue("LLLLLLLN", (long long)sm->cta_sum,
                         (long long)sm->pend_sum, (long long)sm->warp_sum,
                         (long long)sm->max_resident, (long long)sm->idle,
                         (long long)sm->rf, (long long)sm->next_idle,
                         stalls);
}

/* ------------------------------------------------------------------ */
/* In-core subsystems: barrier arrival/release, the long-block /
 * fully-stalled check and the park-candidate test (exact transcriptions
 * of CTASim.arrive_at_barrier, SM._on_long_block and the base policy
 * bodies they reach).  Every base-policy body the core runs itself is
 * marked "transcribes RegisterFilePolicy.<name>": the effects auditor
 * (repro.analyze.effects) reads these markers and requires the policy
 * gate (_INERT_POLICY_ATTRS in repro.sim.compiled) to pin each one. */

static int
cta_unfinished(CoreObject *core, CCta *c)
{
    int n = 0;
    int32_t i;
    for (i = 0; i < c->nwarps; i++)
        if (core->warps[c->warps[i]].state != W_FINISHED)
            n++;
    return n;
}

static int
on_long_block(CoreObject *core, CSm *sm, CWarp *w, int64_t now)
{
    CCta *c = &core->ctas[w->cta];
    /* cta.state is always ACTIVE here: only scheduler-attached warps
     * issue, and only active CTAs' warps are attached. */
    int64_t threshold = core->thresh > 1 ? core->thresh : 1;
    int saw = 0;
    int32_t i;
    for (i = 0; i < c->nwarps; i++) {
        CWarp *x = &core->warps[c->warps[i]];
        if (x->state == W_FINISHED)
            continue;
        saw = 1;
        if (x->blocked_until - now < threshold)
            return 0;
    }
    if (!saw)
        return 0;
    if (!c->stall_recorded && c->first_issue >= 0) {
        c->stall_recorded = 1;
        if (grow((void **)&sm->stalls, &sm->stallcap, sm->nstalls + 1,
                 sizeof(int64_t)))
            return -1;
        sm->stalls[sm->nstalls++] = now - c->first_issue;
    }
    /* transcribes RegisterFilePolicy.on_cta_stalled: a no-op. */
    return 0;
}

/* Returns 1 when the barrier released (caller wakes the schedulers). */
static int
arrive_at_barrier(CoreObject *core, CWarp *w, int64_t now)
{
    CCta *c = &core->ctas[w->cta];
    w->state = W_BARRIER;
    w->blocked_until = CK_FOREVER;
    c->barrier_arrived += 1;
    if (c->barrier_arrived
            && c->barrier_arrived >= cta_unfinished(core, c)) {
        int32_t i;
        for (i = 0; i < c->nwarps; i++) {
            CWarp *x = &core->warps[c->warps[i]];
            if (x->state == W_BARRIER) {
                x->state = W_RUNNABLE;
                x->blocked_until = now;
            }
        }
        c->barrier_arrived = 0;
        return 1;
    }
    return 0;
}

/* transcribes RegisterFilePolicy.stalled_active_ctas: the list is
 * non-empty when some active CTA has every unfinished warp blocked past
 * now (fully_stalled, min_remaining=1) and its earliest resume at least
 * min_park_cycles away. */
static int
has_park_candidate(CoreObject *core, CSm *sm, int64_t now)
{
    int32_t a, i;
    for (a = 0; a < sm->nactive; a++) {
        CCta *c = &core->ctas[sm->active[a]];
        int64_t earliest = CK_FOREVER;
        int saw = 0, stalled = 1;
        for (i = 0; i < c->nwarps; i++) {
            CWarp *x = &core->warps[c->warps[i]];
            if (x->blocked_until < earliest)
                earliest = x->blocked_until;
            if (x->state == W_FINISHED)
                continue;
            saw = 1;
            if (x->blocked_until - now < 1) {
                stalled = 0;
                break;
            }
        }
        if (!saw || !stalled)
            continue;
        if ((earliest > now ? earliest : now) - now >= core->min_park)
            return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* The issue loop.  Helpers: operand-ready cycle with the chk memo, and
 * the inlined AddressModel.address_for. */

static inline int64_t
operands_ready(CoreObject *core, CWarp *w, CMeta *m, int64_t pos,
               int64_t now)
{
    int64_t rdy = 0;
    if (m->nsrc && w->peak_ready > now) {
        if (w->chk_pos == pos) {
            rdy = w->chk_ready;
        } else {
            const int32_t *srcs = &core->srcs[m->src_off];
            int32_t i;
            for (i = 0; i < m->nsrc; i++) {
                int64_t t = w->ready_at[srcs[i]];
                if (t > rdy)
                    rdy = t;
            }
        }
    }
    return rdy;
}

static inline int64_t
mem_address(CoreObject *core, CWarp *w, CMeta *m)
{
    if (m->pat == 0) {              /* STREAM */
        int64_t c = w->stream_counter + 1;
        w->stream_counter = c;
        return w->stream_base + c * 128;
    }
    if (m->pat == 1) {              /* REUSE */
        int64_t c = w->reuse_counter;
        w->reuse_counter = c + 1;
        return w->reuse_base
            + ((c / core->reuse_spatial) % core->reuse_lines) * 128;
    }
    {                               /* SHARED_WS */
        int64_t c = w->shared_counter + 1;
        w->shared_counter = c;
        return core->shared_base
            + ((c * 7 + w->global_warp_id * 13) % core->shared_lines)
            * 128;
    }
}

static inline int
warp_pos_ok(CoreObject *core, CWarp *w)
{
    if (w->pos < 0 || w->pos >= core->traces[w->trace].len) {
        PyErr_SetString(PyExc_RuntimeError,
                        "runnable warp issued past the end of its trace");
        return 0;
    }
    return 1;
}

static inline void
wake_schedulers(CSm *sm, CSched *scheds, int nsched)
{
    int k;
    sm->sched_sleep = 0;
    for (k = 0; k < nsched; k++)
        scheds[k].sleep_until = 0;
}

/* Park an issue-loop op; the caller returns its kind. */
static inline int
park(CSm *sm, int kind, int32_t ws, CMeta *m, int from_scan, int s)
{
    sm->pend_kind = kind;
    sm->pend_warp = ws;
    sm->pend_dest = m->dest;
    sm->pend_from_scan = from_scan;
    sm->pend_sched = s;
    sm->sched_idx = s;
    return kind;
}

/* Run SM._step_fast's scheduler loop from sm->sched_idx.  Returns an op
 * kind when it parks a LOAD / STORE / EXIT (the address is left in
 * *address), 0 when the loop completes, -1 on error. */
static int
issue_loop(CoreObject *self, CSm *sm, CSched *scheds, int64_t now,
           int64_t *address)
{
    CWarp *W = self->warps;
    const int nsched = self->nsched;
    const int64_t thresh = self->thresh;
    int s;
    for (s = sm->sched_idx; s < nsched; s++) {
        CSched *sc = &scheds[s];
        if (now < sc->sleep_until)
            continue;
        int32_t cur = sc->current;
        if (cur >= 0) {
            CWarp *w = &W[cur];
            if (w->state == W_FINISHED) {
                sc->current = -1;
                cur = -1;
            } else if (w->blocked_until <= now && w->state == W_RUNNABLE) {
                /* ---- greedy retry of the current warp ---- */
                if (!warp_pos_ok(self, w))
                    return -1;
                int64_t pos = w->pos;
                CMeta *m = &self->meta[self->traces[w->trace].idx[pos]];
                int64_t rdy = operands_ready(self, w, m, pos, now);
                if (rdy <= now) {
                    CCta *c = &self->ctas[w->cta];
                    if (c->first_issue < 0)
                        c->first_issue = now;
                    w->pos = pos + 1;
                    int fk = m->fkind;
                    if (fk == 0) {
                        int64_t t = now + m->flat;
                        w->ready_at[m->dest] = t;
                        if (t > w->peak_ready)
                            w->peak_ready = t;
                    } else if (fk <= 2) {
                        *address = mem_address(self, w, m);
                        return park(sm, fk, cur, m, 0, s);
                    } else if (fk == 3) {
                        if (arrive_at_barrier(self, w, now))
                            wake_schedulers(sm, scheds, nsched);
                        else if (w->blocked_until == CK_FOREVER
                                 && on_long_block(self, sm, w, now))
                            return -1;
                    } else if (fk == 4) {
                        return park(sm, OP_EXIT, cur, m, 0, s);
                    }
                    /* fk == 5: BRA / STS, no timing effect */
                    sm->issued += 1;
                    continue;      /* next scheduler */
                }
                w->blocked_until = rdy;
                w->chk_pos = pos;
                w->chk_ready = rdy;
                if (rdy - now >= thresh && on_long_block(self, sm, w, now))
                    return -1;
                /* blocked greedy warp: fall through to the scan */
            }
        }
        /* ---- oldest-first scan over the members (sched_seq order;
         * observably identical to the ready buckets) ---- */
        int dispatched = 0;
        int32_t i;
        for (i = 0; i < sc->nmembers && !dispatched; i++) {
            int32_t ws = sc->members[i];
            if (ws == cur)
                continue;
            CWarp *w = &W[ws];
            if (w->blocked_until > now)
                continue;
            if (w->state != W_RUNNABLE)
                continue;
            if (!warp_pos_ok(self, w))
                return -1;
            int64_t pos = w->pos;
            CMeta *m = &self->meta[self->traces[w->trace].idx[pos]];
            int64_t rdy = operands_ready(self, w, m, pos, now);
            if (rdy > now) {
                w->blocked_until = rdy;
                w->chk_pos = pos;
                w->chk_ready = rdy;
                if (rdy - now >= thresh && on_long_block(self, sm, w, now))
                    return -1;
                continue;
            }
            CCta *c = &self->ctas[w->cta];
            if (c->first_issue < 0)
                c->first_issue = now;
            w->pos = pos + 1;
            int fk = m->fkind;
            if (fk == 0) {
                int64_t t = now + m->flat;
                w->ready_at[m->dest] = t;
                if (t > w->peak_ready)
                    w->peak_ready = t;
            } else if (fk <= 2) {
                *address = mem_address(self, w, m);
                return park(sm, fk, ws, m, 1, s);
            } else if (fk == 3) {
                if (arrive_at_barrier(self, w, now))
                    wake_schedulers(sm, scheds, nsched);
                else if (w->blocked_until == CK_FOREVER
                         && on_long_block(self, sm, w, now))
                    return -1;
            } else if (fk == 4) {
                return park(sm, OP_EXIT, ws, m, 1, s);
            }
            /* fk == 5: no timing effect */
            sc->current = ws;
            sm->issued += 1;
            dispatched = 1;
        }
        if (!dispatched) {
            /* Failed scan: the sleep fold.  Equals the bucket fold: min
             * blocked_until over every attached warp, staying awake if
             * any still reads <= now. */
            int64_t earliest = CK_FOREVER;
            int stay = 0;
            for (i = 0; i < sc->nmembers; i++) {
                int64_t b = W[sc->members[i]].blocked_until;
                if (b <= now) {
                    stay = 1;
                    break;
                }
                if (b < earliest)
                    earliest = b;
            }
            if (!stay)
                sc->sleep_until = earliest;
        }
    }
    return 0;
}

/* One SM's step at self->now, resumed at sm->phase.  Returns an op kind
 * when the step stops at an op, 0 when the step is over, -1 on error. */
static int
step_sm(CoreObject *self, CSm *sm, CSched *scheds, int64_t *address)
{
    const int64_t now = self->now;
    int op, k;
    switch (sm->phase) {
    case PH_SETTLE:
        sm->phase = PH_TICK;
        if (now >= sm->transit_min)
            return OP_SETTLE;
        /* fall through */
    case PH_TICK:
        sm->phase = PH_SCAN_START;
        if (sm->needs_tick && now >= sm->wake_time)
            return OP_TICK;
        /* fall through */
    case PH_SCAN_START:
        sm->issued = 0;
        sm->sched_idx = 0;
        if (now < sm->sched_sleep) {
            sm->phase = PH_IDLE;
            goto idle;
        }
        sm->phase = PH_SCAN;
        /* fall through */
    case PH_SCAN:
        op = issue_loop(self, sm, scheds, now, address);
        if (op)
            return op;
        if (sm->issued) {
            self->any_issued = 1;
            sm->phase = PH_END;
            return 0;
        }
        {
            int64_t sleep = CK_FOREVER;
            for (k = 0; k < self->nsched; k++)
                if (scheds[k].sleep_until < sleep)
                    sleep = scheds[k].sleep_until;
            sm->sched_sleep = sleep;
        }
        sm->phase = PH_IDLE;
        /* fall through */
    case PH_IDLE:
    idle:
        sm->phase = PH_END;
        /* GPU._run_event: a non-issuing busy SM calls on_idle, which
         * transcribes RegisterFilePolicy.on_idle: it returns before the
         * cooldown and, with no park candidate, only re-arms it. */
        if (sm->needs_idle && (sm->active_count || sm->pend_count)
                && now >= sm->next_idle) {
            if (has_park_candidate(self, sm, now))
                return OP_IDLE;
            sm->next_idle = now + IDLE_COOLDOWN;
        }
        return 0;
    default:
        return 0;
    }
}

/* Close the level segment at ``now`` if a mutation dirtied the levels
 * (SM.accumulate's buffered-flush boundary). */
static inline void
flush_levels(CSm *sm, int64_t now)
{
    if (!sm->lvl_dirty)
        return;
    int64_t dt = now - sm->seg_start;
    sm->cta_sum += dt * sm->seg_active;
    sm->pend_sum += dt * sm->seg_pend;
    sm->warp_sum += dt * sm->seg_warps;
    sm->seg_active = sm->active_count;
    sm->seg_pend = sm->pend_count;
    sm->seg_warps = sm->active_warps;
    sm->seg_start = now;
    if (sm->seg_active + sm->seg_pend > sm->max_resident)
        sm->max_resident = sm->seg_active + sm->seg_pend;
    sm->lvl_dirty = 0;
}

static inline void
idle_advance(CSm *sm, int64_t dt)
{
    if (sm->active_count || sm->pend_count) {
        sm->idle += dt;
        /* transcribes RegisterFilePolicy.classify_idle: "rf" */
        if (sm->blocked_on_rf)
            sm->rf += dt;
    }
}

static PyObject *
op_tuple(int kind, int64_t now, int sm_id, PyObject *a, int64_t b)
{
    PyObject *t = PyTuple_New(5);
    if (t == NULL)
        return NULL;
    Py_INCREF(a);
    PyObject *items[5] = {
        PyLong_FromLong(kind), PyLong_FromLongLong(now),
        PyLong_FromLong(sm_id), a, PyLong_FromLongLong(b),
    };
    int i;
    for (i = 0; i < 5; i++) {
        if (items[i] == NULL) {
            int j;
            for (j = 0; j < 5; j++)
                Py_XDECREF(items[j]);
            Py_DECREF(t);
            return NULL;
        }
    }
    for (i = 0; i < 5; i++)
        PyTuple_SET_ITEM(t, i, items[i]);
    return t;
}

static PyObject *
core_resume(CoreObject *self, PyObject *arg)
{
    long long value = PyLong_AsLongLong(arg);
    if (value == -1 && PyErr_Occurred())
        return NULL;
    if (self->sms == NULL || self->status) {
        PyErr_SetString(PyExc_RuntimeError,
                        "resume() on an uninitialized or finished core");
        return NULL;
    }
    const int nsched = self->nsched;
    int timed_out = 0;

    /* Complete the parked issue-loop op, if any: finish the op, promote a
     * scan-path warp to current, count the issue, next scheduler. */
    if (self->cycle_open && self->cur_sm < self->num_sms) {
        CSm *sm = &self->sms[self->cur_sm];
        if (sm->pend_kind) {
            CSched *scheds = &self->scheds[(size_t)self->cur_sm * nsched];
            CWarp *w = &self->warps[sm->pend_warp];
            if (sm->pend_kind == OP_LOAD) {
                w->ready_at[sm->pend_dest] = value;
                if (value > w->peak_ready)
                    w->peak_ready = value;
            }
            if (sm->pend_from_scan)
                scheds[sm->pend_sched].current = sm->pend_warp;
            sm->pend_kind = 0;
            sm->issued += 1;
            sm->sched_idx = sm->pend_sched + 1;
        }
    }

    for (;;) {
        int64_t now = self->now;
        int32_t s;
        if (!self->cycle_open) {
            if (self->grid_remaining == 0) {
                for (s = 0; s < self->num_sms; s++)
                    if (self->sms[s].active_count || self->sms[s].pend_count)
                        break;
                if (s == self->num_sms)
                    goto done;
            }
            if (now >= self->max_cycles) {
                timed_out = 1;
                goto done;
            }
            self->cycle_open = 1;
            self->cur_sm = 0;
            self->any_issued = 0;
            for (s = 0; s < self->num_sms; s++)
                self->sms[s].phase = PH_SETTLE;
        }
        while (self->cur_sm < self->num_sms) {
            int32_t id = self->cur_sm;
            int64_t address = 0;
            int op = step_sm(self, &self->sms[id],
                             &self->scheds[(size_t)id * nsched], &address);
            if (op < 0)
                return NULL;
            if (op) {
                CSm *sm = &self->sms[id];
                /* EXIT carries the warp; IDLE carries the core's idle
                 * cooldown, which it may have re-armed since Python last
                 * saw it. */
                if (op == OP_EXIT)
                    return op_tuple(op, now, id,
                                    self->warp_objs[sm->pend_warp], 0);
                PyObject *a = PyLong_FromLongLong(
                    op == OP_IDLE ? sm->next_idle : 0);
                if (a == NULL)
                    return NULL;
                PyObject *t = op_tuple(op, now, id, a, address);
                Py_DECREF(a);
                return t;
            }
            self->cur_sm++;
        }
        if (PyErr_Occurred())
            return NULL;
        /* ---- end of cycle: GPU._run_event's accumulate calls ---- */
        int64_t dt = 1;
        if (!self->any_issued) {
            int64_t nxt = CK_FOREVER;
            for (s = 0; s < self->num_sms; s++) {
                /* SM.next_event_fast */
                CSm *sm = &self->sms[s];
                CSched *scheds = &self->scheds[(size_t)s * nsched];
                int64_t ss = CK_FOREVER, earliest;
                int k;
                for (k = 0; k < nsched; k++)
                    if (scheds[k].sleep_until < ss)
                        ss = scheds[k].sleep_until;
                earliest = ss < CK_FOREVER ? (ss > now ? ss : now)
                                           : CK_FOREVER;
                if (sm->transit_min < earliest)
                    earliest = sm->transit_min;
                if (sm->next_event < earliest)
                    earliest = sm->next_event;
                if (earliest < nxt)
                    nxt = earliest;
            }
            if (nxt >= CK_FOREVER) {
                self->status = 1;
                return op_tuple(OP_DEADLOCK, now, -1, Py_None, 0);
            }
            dt = nxt - now > 1 ? nxt - now : 1;
        }
        for (s = 0; s < self->num_sms; s++) {
            CSm *sm = &self->sms[s];
            flush_levels(sm, now);
            if (!self->any_issued || !sm->issued)
                idle_advance(sm, dt);
        }
        self->now = now + dt;
        self->cycle_open = 0;
    }

done:
    {
        int64_t now = self->now;
        int32_t s;
        for (s = 0; s < self->num_sms; s++) {
            /* The final flush_levels span. */
            CSm *sm = &self->sms[s];
            int64_t dt = now - sm->seg_start;
            sm->cta_sum += dt * sm->seg_active;
            sm->pend_sum += dt * sm->seg_pend;
            sm->warp_sum += dt * sm->seg_warps;
            sm->seg_start = now;
        }
        self->status = 1;
        return op_tuple(OP_DONE, now, -1, timed_out ? Py_True : Py_False,
                        0);
    }
}

/* ------------------------------------------------------------------ */
static PyMethodDef core_methods[] = {
    {"add_trace", (PyCFunction)core_add_trace, METH_O,
     "Lower one dynamic trace (sequence of static indices) -> index."},
    {"new_cta", (PyCFunction)core_new_cta, METH_VARARGS,
     "new_cta(cta, cta_id) -> cta slot."},
    {"new_warp", (PyCFunction)core_new_warp, METH_VARARGS,
     "new_warp(warp, cta_slot, trace_idx, global_warp_id) -> warp slot."},
    {"set_policy", (PyCFunction)core_set_policy, METH_VARARGS,
     "set_policy(sm_id, sm, schedulers, needs_tick, needs_idle): bind "
     "one SM."},
    {"sync", (PyCFunction)core_sync, METH_O,
     "sync(sm_id): re-import the SM's schedulers and active-CTA list."},
    {"mirror", (PyCFunction)core_mirror, METH_VARARGS,
     "mirror(sm_id, active, pending_and_transit, active_warps, dirty, "
     "transit_min, wake_time (-1 keeps), next_event, next_idle_check "
     "(-1 keeps), blocked_on_rf, grid_remaining)."},
    {"reimport_cta", (PyCFunction)core_reimport_cta, METH_O,
     "reimport_cta(cta): its barrier count and warp states."},
    {"export", (PyCFunction)core_export, METH_VARARGS,
     "export(sm_id, with_warps): write the SM's scheduler (and active "
     "CTA / warp) state onto the Python objects."},
    {"finish", (PyCFunction)core_finish, METH_O,
     "finish(sm_id) -> (cta_sum, pending_sum, warp_sum, max_resident, "
     "idle, rf_depletion, next_idle_check, stall_latencies)."},
    {"resume", (PyCFunction)core_resume, METH_O,
     "resume(value) -> (kind, cycle, sm_id, a, b) op descriptor."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Core",
    .tp_basicsize = sizeof(CoreObject),
    .tp_dealloc = (destructor)core_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Lowered per-run simulation core for the compiled backend.",
    .tp_methods = core_methods,
    .tp_init = (initproc)core_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim._ckernel",
    "Compiled cycle-loop core for the 'compiled' engine backend.",
    -1,
    NULL,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    struct { PyObject **slot; const char *name; } names[] = {
        {&s_pos, "pos"}, {&s_state, "state"},
        {&s_blocked_until, "blocked_until"},
        {&s_barrier_arrived, "barrier_arrived"},
        {&s_first_issue_cycle, "first_issue_cycle"},
        {&s_stall_recorded, "stall_recorded"},
        {&s_sleep_until, "_sleep_until"}, {&s_current, "_current"},
        {&s_dirty, "_dirty"}, {&s_sched_sleep, "_sched_sleep"},
        {&s_warps, "warps"}, {&s_active_ctas, "active_ctas"},
    };
    size_t n;
    for (n = 0; n < sizeof(names) / sizeof(names[0]); n++) {
        if (*names[n].slot == NULL) {
            *names[n].slot = PyUnicode_InternFromString(names[n].name);
            if (*names[n].slot == NULL)
                return NULL;
        }
    }
    if (PyType_Ready(&CoreType) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&ckernel_module);
    if (mod == NULL)
        return NULL;
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(mod, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(mod);
        return NULL;
    }
    if (PyModule_AddIntConstant(mod, "FOREVER", CK_FOREVER) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
