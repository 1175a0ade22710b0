/* Compiled simulation core for the "compiled" engine backend.
 *
 * One Core object holds the lowered state of every SM of one run: the
 * static per-instruction metadata table, the dynamic traces (deduplicated
 * by identity), flat per-warp / per-CTA / per-scheduler records, the
 * memory hierarchy (every L1's and the L2's tag arrays, the per-SM merge
 * tables and the DRAM channel), RegMutex's shared register pool (the
 * per-SM counters, a lease per warp and the demand table) and one
 * *global* clock.  Core.resume() runs the cycle loop of GPU._run_event --
 * every SM stepped in sm_id order per executed cycle, each step a C
 * transcription of StreamingMultiprocessor.step with GTOScheduler.issue
 * and StreamingMultiprocessor._try_issue inlined (issue_loop), its LDG/STG
 * accesses completed by mem_access() (a transcription of
 * MemoryHierarchy._access), then the per-cycle idle and level accounting,
 * the idle jump to the minimum SM.next_event, timeout and deadlock -- until
 * it reaches an *op*: something only the real Python objects may do.  It then
 * returns an op descriptor; repro.sim.compiled serves the op and calls
 * resume() again, which completes the op and continues.  Ops
 * come out in the dense engine's global order (cycle, sm_id, program
 * order):
 *
 *   EXIT          a warp EXIT: the _finish_warp -> retire -> policy chain;
 *   SETTLE        now reached the SM's earliest transit_until;
 *   TICK          now reached the policy's cached wake_time;
 *   IDLE          a busy SM issued nothing, is past its idle cooldown, has
 *                 at least one CTA stalled_active_ctas would return, and
 *                 its policy can act: now reached the cached idle_wake, or
 *                 the DRAM backlog is under the cached idle_backlog_limit.
 *
 * This works without coroutines because the control flow after every op
 * is fixed: each SM step is a small phase machine (settle, tick, issue,
 * idle) and the issue loop's continuation after an EXIT is always
 * "promote a scan-path warp to current, count the issue, move to the next
 * scheduler".
 *
 * After each policy op the driver pushes the SM's mirrors (levels, dirty
 * flag, earliest transit, wake_time, next_event, idle_wake and
 * idle_backlog_limit, idle cooldown, RF-blocked flag, grid remaining)
 * and, where the op changed them, the scheduler membership and active-CTA
 * list.  The core decides the skipped calls itself, exactly: on_tick is an
 * observable no-op before wake_time, the settle scan before the earliest
 * transit, and the base on_idle only arms its cooldown (the policy's
 * IDLE_COOLDOWN, passed to Core()) when there is no park candidate or
 * _act_on_idle cannot act: before the cached idle_wake, unless the DRAM
 * backlog, which moves here between ops, is under the cached
 * idle_backlog_limit (compared live, as DRAM.backlog computes it).  Across
 * SMs the grid only drains, which can only close a gate, and a stale open
 * gate costs one op that moves nothing.  The core also counts the cycles
 * it opens
 * (executed_cycles()); the driver reads the count before serving each op,
 * so a policy can fold a once-per-executed-cycle count (FineReg's blocked
 * restores) over the ticks wake_time lets it skip.
 *
 * RegMutex's per-instruction SRP lease (srp_on_issue) runs in the issue
 * loop where SM._try_issue calls the policy's issue hook, and its SRP idle
 * attribution in the per-cycle idle accounting; its section below says
 * how the pool crosses the EXIT ops.
 *
 * The DRAM channel is shared with the served ops (context spills and
 * restores, bit-vector fetches and the backlog read go through the Python
 * DRAM): the core hands its channel_free to the Python object before
 * returning any op and reads it back when resume() is called again.  The
 * demand traffic counters stay in C until repro.sim.compiled merges them
 * at run end, but the first demand charge of each class inserts its key
 * into bytes_by_class, so the dict's key order matches the Python
 * engines'.
 *
 * Per-scheduler state is a flat member array scanned in attach order --
 * observably identical to the Python ready/blocked buckets: the buckets
 * only reorder *consideration* of warps that could not issue anyway,
 * consideration order among ready warps is always ascending sched_seq
 * (== attach order), and the failed-scan sleep fold reduces to the min
 * blocked_until over every attached warp.
 *
 * Where the transcription departs from the Python bodies, it is exact:
 *
 *   operand memo  a warp that fails its operand check records the trace
 *                 position and the ready cycle it computed (chk_pos,
 *                 chk_ready); a later check at the same position reuses
 *                 the cycle.  ready_at changes only when the warp itself
 *                 issues, which advances pos, so a matching position means
 *                 the memo is still exact.
 *   counters      the core counts no issued instructions, RF reads and
 *                 writes or shared-memory accesses: run_compiled sets
 *                 sm._defer_stats, so the EXIT op's _finish_warp credits
 *                 the warp's whole trace from sm._packed_vec and
 *                 _finish_run the issued prefix of any warp a timeout
 *                 leaves unfinished.  The totals are exact
 *                 because every trace entry issues exactly once.
 *   no peek       after an issue, _try_issue peeks the next instruction's
 *                 operands and, for a stall shorter than the CTA-switch
 *                 threshold, writes the blocked_until the warp's next
 *                 attempt would write.  The core makes that attempt
 *                 instead, which writes the identical value one attempt
 *                 later; _try_issue's comment gives why no reader can tell
 *                 the two apart (the peek is confined to short stalls for
 *                 that reason).
 *   sleep caches  the idle jump reads each SM's next event from its
 *                 schedulers' sleep_until instead of SM.next_event's scan
 *                 of every active warp's blocked_until.  Whenever the jump
 *                 asks (a cycle on which no SM issued, after this SM's
 *                 step or while it sleeps with frozen state), each
 *                 scheduler's cache is the exact minimum over its members
 *                 -- the failed-scan fold and GTOScheduler._resleep both
 *                 compute it, and every external wake resets it -- and the
 *                 members are every unfinished warp of the active CTAs, so
 *                 the minimum and its clamp to now are next_event's.
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
#define OP_EXIT 1
#define OP_SETTLE 2
#define OP_TICK 3
#define OP_IDLE 4
#define OP_DEADLOCK 5

/* Per-SM step phases within one cycle. */
#define PH_SETTLE 0
#define PH_TICK 1
#define PH_SCAN_START 2
#define PH_SCAN 3
#define PH_IDLE 4
#define PH_END 5

typedef struct {
    int32_t nsrc;
    int32_t dest;      /* -1 when the instruction writes no register */
    int32_t pat;       /* 0 STREAM / 1 REUSE / 2 SHARED_WS / -1 */
    int32_t fkind;     /* collapsed kind (compiled._CORE_KINDS): 0 fixed
                          latency, 1 LDG, 2 STG, 3 BAR, 4 EXIT, 5 no-op */
    int64_t flat;      /* total fixed latency for fkind 0 */
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
    int64_t chk_pos;        /* operand memo: the position last checked */
    int64_t chk_ready;      /* ... and its ready cycle */
    int64_t stream_counter;
    int64_t reuse_counter;
    int64_t shared_counter;
    int64_t stream_base;
    int64_t reuse_base;
    int64_t global_warp_id;
    int64_t lease;          /* SRP registers held (RegMutexPolicy._leases) */
    int64_t lease_seq;      /* when the lease entered _leases (dict order) */
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
    int32_t sm;             /* the SM that launched it */
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
    /* Parked EXIT of the issue loop. */
    int32_t pend_exit;
    int32_t pend_warp;
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
    int64_t idle_wake;      /* policy.idle_wake, cached after a hook */
    double idle_backlog;    /* policy.idle_backlog_limit, likewise */
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
    /* RegMutex's shared register pool: which of its bodies the policy
     * runs (set_policy) and, when either, its lowered counters. */
    int32_t srp_issue;      /* RegMutexPolicy.on_issue per issue */
    int32_t srp_classify;   /* RegMutexPolicy.classify_idle per advance */
    int64_t srp_free;
    int64_t srp_capacity;
    int64_t srp_acquires;
    int64_t srp_denials;
    int64_t srp_blocked;    /* policy._srp_blocked */
    int64_t srp_stall;      /* merged into stats.srp_stall_cycles */
    PyObject *policy;       /* lowered by lower_srp */
    PyObject *obj;          /* the StreamingMultiprocessor */
} CSm;

/* One Cache: set s holds fill[s] tags at tags[s * assoc ...] in MRU
 * order (Cache._sets[s]), each with its dirty bit (a (s, tag) key of
 * Cache._dirty).  The counters are this run's CacheStats increments. */
typedef struct {
    int64_t num_sets;
    int32_t assoc;
    int32_t allocate_on_write;
    int32_t last_evicted_dirty;
    int64_t *tags;
    uint8_t *dirty;
    int32_t *fill;
    /* The lowered sets, for the write-back diff. */
    int64_t *tags0;
    uint8_t *dirty0;
    int32_t *fill0;
    uint8_t *touched;       /* per set: accessed this run */
    int32_t *touched_list;  /* touched sets, first-touch order */
    int32_t ntouched;
    int64_t read_hits, read_misses, write_hits, write_misses;
    int64_t dirty_evictions;
} CCache;

/* One SM's outstanding-miss table (MemoryHierarchy._outstanding[sm]):
 * line address -> completion cycle, open addressing with linear probing
 * (key -1 marks an empty slot; cap is a power of two, at most half full). */
typedef struct {
    int64_t *keys;
    int64_t *done;
    int32_t cap;
    int32_t count;
} CMerge;

/* Demand traffic classes the core charges (DRAMStats.bytes_by_class). */
#define DEMAND_READ 0
#define DEMAND_WRITE 1

typedef struct {
    CCache *caches;         /* num_sms L1s, then the L2 */
    CCache *l2;
    CMerge *merges;         /* per SM */
    int64_t line_bytes;
    int64_t l1_hit_lat;
    int64_t l2_hit_lat;
    /* HierarchyStats increments. */
    int64_t loads, stores, merged_misses;
    /* The DRAM channel and this run's DRAMStats increments. */
    PyObject *dram;         /* the Python DRAM (channel hand-off) */
    PyObject *by_class;     /* its stats.bytes_by_class */
    double channel_free;
    double bytes_per_cycle;
    int64_t latency;
    int32_t channel_moved;  /* C charged the channel since the hand-off */
    int32_t class_seen[2];
    int64_t class_bytes[2];
    int64_t requests, total_bytes, queue_cycles;
} CMem;

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
    int64_t idle_cooldown;  /* policies.base.IDLE_COOLDOWN */
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
    CMem mem;
    /* RegMutex's per-static-instruction SRP demand (one table: a compiled
     * run has a single launch), its block size and retry interval. */
    int64_t *srp_demand;
    int32_t nsrp_demand;
    int64_t srp_block;
    int64_t srp_retry;
    int64_t lease_seq;
    /* The global clock, and how many cycles it has opened: the executed
     * cycles every engine counts (policies fold per-cycle counts over
     * them in closed form). */
    int64_t now;
    int64_t executed;
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
cache_free(CCache *c)
{
    PyMem_Free(c->tags);
    PyMem_Free(c->dirty);
    PyMem_Free(c->fill);
    PyMem_Free(c->tags0);
    PyMem_Free(c->dirty0);
    PyMem_Free(c->fill0);
    PyMem_Free(c->touched);
    PyMem_Free(c->touched_list);
    memset(c, 0, sizeof(*c));
}

static void
core_dealloc(CoreObject *self)
{
    int32_t i;
    CMem *mem = &self->mem;
    if (mem->caches) {
        for (i = 0; i <= self->num_sms; i++)
            cache_free(&mem->caches[i]);
        PyMem_Free(mem->caches);
    }
    if (mem->merges) {
        for (i = 0; i < self->num_sms; i++) {
            PyMem_Free(mem->merges[i].keys);
            PyMem_Free(mem->merges[i].done);
        }
        PyMem_Free(mem->merges);
    }
    Py_XDECREF(mem->dram);
    Py_XDECREF(mem->by_class);
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
            Py_XDECREF(self->sms[i].policy);
            Py_XDECREF(self->sms[i].obj);
        }
        PyMem_Free(self->sms);
    }
    Py_XDECREF(self->warp_slots);
    Py_XDECREF(self->cta_slots);
    Py_XDECREF(self->states);
    PyMem_Free(self->meta);
    PyMem_Free(self->srcs);
    PyMem_Free(self->srp_demand);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
core_init(CoreObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *meta_list, *states;
    long long thresh, reuse_spatial, reuse_lines, shared_lines;
    long long shared_base, max_cycles, min_park, idle_cooldown;
    int num_sms, nsched, nregs;
    if (self->meta != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Core already initialized");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "iiiLLLLLLLLOO!",
                          &num_sms, &nsched, &nregs, &thresh,
                          &reuse_spatial, &reuse_lines, &shared_lines,
                          &shared_base, &max_cycles, &min_park,
                          &idle_cooldown, &meta_list, &PyTuple_Type,
                          &states))
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
    self->idle_cooldown = idle_cooldown;

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
    *s_dirty, *s_sched_sleep, *s_warps, *s_active_ctas, *s_channel_free,
    *s_srp_free, *s_srp_capacity, *s_srp_acquires, *s_srp_denials,
    *s_srp_blocked, *s_leases;

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
    int sm_id;
    if (!PyArg_ParseTuple(args, "OLi", &obj, &cta_id, &sm_id))
        return NULL;
    if (sm_arg(self, sm_id) == NULL)
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
    c->sm = sm_id;
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
    /* Bind one SM: its Python object, its schedulers, the policy's hook
     * flags and which of RegMutexPolicy's bodies it runs. */
    int sm_id, needs_tick, needs_idle, srp_issue, srp_classify;
    PyObject *obj, *scheds;
    if (!PyArg_ParseTuple(args, "iOO!pppp", &sm_id, &obj, &PyList_Type,
                          &scheds, &needs_tick, &needs_idle, &srp_issue,
                          &srp_classify))
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
    sm->srp_issue = srp_issue;
    sm->srp_classify = srp_classify;
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
    long long idle_wake, next_idle, grid;
    double idle_backlog;
    if (!PyArg_ParseTuple(args, "iLLLpLLLLdLpL", &sm_id, &active, &pend,
                          &warps, &dirty, &transit_min, &wake_time,
                          &next_event, &idle_wake, &idle_backlog,
                          &next_idle, &blocked, &grid))
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
    sm->wake_time = wake_time;
    sm->next_event = next_event;
    sm->idle_wake = idle_wake;
    sm->idle_backlog = idle_backlog;
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
     *  srp_stall, next_idle_check, stall latencies); drains the stall
     * log. */
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
    return Py_BuildValue("LLLLLLLLN", (long long)sm->cta_sum,
                         (long long)sm->pend_sum, (long long)sm->warp_sum,
                         (long long)sm->max_resident, (long long)sm->idle,
                         (long long)sm->rf, (long long)sm->srp_stall,
                         (long long)sm->next_idle, stalls);
}

/* ------------------------------------------------------------------ */
/* In-core subsystems: barrier arrival/release, the long-block /
 * fully-stalled check and the park-candidate test (exact transcriptions
 * of CTASim.arrive_at_barrier, SM._on_long_block and the base policy
 * bodies they reach).  Every policy body the core runs itself is marked
 * "transcribes <PolicyClass>.<name>": the effects auditor
 * (repro.analyze.effects) reads these markers and checks them both ways
 * against the bodies the policy gate admits (_INERT_POLICY_ATTRS and
 * _CORE_POLICY_BODIES in repro.sim.compiled). */

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

/* GPU._run_event's idle gate: _act_on_idle can act once now reaches the
 * cached policy.idle_wake, or while the DRAM backlog (DRAM.backlog, in
 * doubles: max(0.0, channel_free - now)) is under the cached
 * policy.idle_backlog_limit.  The driver pushes now for a policy whose
 * idle_wake it does not trust, which keeps the gate open. */
static int
idle_gate_open(CoreObject *core, CSm *sm, int64_t now)
{
    if (now >= sm->idle_wake)
        return 1;
    double backlog = core->mem.channel_free - (double)now;
    return (backlog > 0.0 ? backlog : 0.0) < sm->idle_backlog;
}

/* ------------------------------------------------------------------ */
/* RegMutex's shared register pool (SRP): the per-instruction lease and
 * the idle attribution run in the core for an SM whose policy runs
 * RegMutexPolicy's bodies (set_policy says which).  The counters are
 * lowered once per run, before any warp holds a lease (lower_srp), and
 * written back with every warp's lease at its end (write_back_srp).
 * Mid-run only RegMutexPolicy.on_cta_finished touches the pool from
 * Python, inside the EXIT op chain, so srp_free and the exiting CTA's
 * leases are handed to the policy before an EXIT op and read back when
 * resume() is called again; between ops the policy's _leases holds
 * nothing the core owns. */

/* transcribes RegMutexPolicy.on_issue: returns 1 when the warp may
 * issue, 0 when the SRP is exhausted and it must retry after
 * SRP_RETRY_INTERVAL (the operand memo and the long-block check are
 * untouched: the hook, not an operand, refused it). */
static inline int
srp_on_issue(CoreObject *core, CSm *sm, CWarp *w, int32_t static_index,
             int64_t now)
{
    int64_t demand = core->srp_demand[static_index];
    int64_t held = w->lease;
    if (demand == 0) {
        if (held) {
            sm->srp_free += held;
            w->lease = 0;
        }
        return 1;
    }
    /* Block-granular allocation: round the excess up to whole blocks. */
    demand = (demand + core->srp_block - 1) / core->srp_block
        * core->srp_block;
    if (demand <= held)
        return 1;
    int64_t need = demand - held;
    if (need <= sm->srp_free) {
        sm->srp_free -= need;
        if (!held)
            w->lease_seq = ++core->lease_seq;
        w->lease = demand;
        sm->srp_acquires += 1;
        return 1;
    }
    w->blocked_until = now + core->srp_retry;
    sm->srp_blocked += 1;
    sm->srp_denials += 1;
    return 0;
}

static int
srp_lowered(CoreObject *self)
{
    int32_t s;
    for (s = 0; s < self->num_sms; s++) {
        CSm *sm = &self->sms[s];
        if ((sm->srp_issue || sm->srp_classify) && sm->policy == NULL)
            return 0;
        if (sm->srp_issue && self->srp_demand == NULL)
            return 0;
    }
    return 1;
}

static PyObject *
core_lower_srp(CoreObject *self, PyObject *args)
{
    /* Lower one SM's pool from its policy: the counters and, when the SM
     * runs the lease, the demand table with SRP_BLOCK and
     * SRP_RETRY_INTERVAL.  A compiled run has a single launch, so every
     * SM's table must equal the first one lowered. */
    int sm_id;
    PyObject *policy, *demand;
    long long block, retry;
    if (!PyArg_ParseTuple(args, "iOOLL", &sm_id, &policy, &demand, &block,
                          &retry))
        return NULL;
    CSm *sm = sm_arg(self, sm_id);
    if (sm == NULL)
        return NULL;
    if (self->meta == NULL || block <= 0 || retry < 0
            || (sm->srp_issue && demand == Py_None)) {
        PyErr_SetString(PyExc_ValueError,
                        "lower_srp needs SRP_BLOCK > 0, a retry interval "
                        ">= 0 and the demand table of an SM running the "
                        "lease");
        return NULL;
    }
    if (demand != Py_None) {
        PyObject *seq = PySequence_Fast(demand, "demand must be a sequence");
        if (seq == NULL)
            return NULL;
        Py_ssize_t n = PySequence_Fast_GET_SIZE(seq), i;
        int fresh = self->srp_demand == NULL;
        if (n != self->nmeta || (!fresh && (block != self->srp_block
                                           || retry != self->srp_retry))) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_ValueError,
                            "SRP demand table or constants differ from the "
                            "run's");
            return NULL;
        }
        if (fresh) {
            self->srp_demand = PyMem_Calloc(n ? (size_t)n : 1,
                                            sizeof(int64_t));
            if (self->srp_demand == NULL) {
                Py_DECREF(seq);
                return PyErr_NoMemory();
            }
            self->nsrp_demand = (int32_t)n;
            self->srp_block = block;
            self->srp_retry = retry;
        }
        for (i = 0; i < n; i++) {
            long long v = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
            if (v < 0 || (!fresh && v != self->srp_demand[i])) {
                Py_DECREF(seq);
                if (fresh) {
                    PyMem_Free(self->srp_demand);
                    self->srp_demand = NULL;
                }
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_ValueError,
                                    "SRP demand table differs from the "
                                    "run's or is negative");
                return NULL;
            }
            self->srp_demand[i] = v;
        }
        Py_DECREF(seq);
    }
    if (get_ll(policy, s_srp_free, &sm->srp_free)
            || get_ll(policy, s_srp_capacity, &sm->srp_capacity)
            || get_ll(policy, s_srp_acquires, &sm->srp_acquires)
            || get_ll(policy, s_srp_denials, &sm->srp_denials)
            || get_ll(policy, s_srp_blocked, &sm->srp_blocked))
        return NULL;
    /* Lowered before any warp issues, so no warp holds a lease yet. */
    PyObject *leases = PyObject_GetAttr(policy, s_leases);
    if (leases == NULL)
        return NULL;
    int held = !PyDict_Check(leases) || PyDict_GET_SIZE(leases);
    Py_DECREF(leases);
    if (held) {
        PyErr_SetString(PyExc_ValueError,
                        "lower_srp needs an empty _leases dict");
        return NULL;
    }
    Py_INCREF(policy);
    Py_XSETREF(sm->policy, policy);
    Py_RETURN_NONE;
}

/* Before an EXIT op: srp_free and the exiting CTA's leases to the policy. */
static int
srp_out(CoreObject *self, CSm *sm, CCta *c)
{
    if (set_ll(sm->policy, s_srp_free, sm->srp_free))
        return -1;
    PyObject *leases = PyObject_GetAttr(sm->policy, s_leases);
    if (leases == NULL)
        return -1;
    int32_t i;
    for (i = 0; i < c->nwarps; i++) {
        CWarp *w = &self->warps[c->warps[i]];
        if (!w->lease)
            continue;
        PyObject *key = PyLong_FromLongLong(w->global_warp_id);
        PyObject *val = PyLong_FromLongLong(w->lease);
        int r = key == NULL || val == NULL
            || PyDict_SetItem(leases, key, val) < 0;
        Py_XDECREF(key);
        Py_XDECREF(val);
        if (r) {
            Py_DECREF(leases);
            return -1;
        }
    }
    Py_DECREF(leases);
    return 0;
}

/* After it: read them back (on_cta_finished popped the released ones). */
static int
srp_in(CoreObject *self, CSm *sm, CCta *c)
{
    int64_t free_count;
    if (get_ll(sm->policy, s_srp_free, &free_count))
        return -1;
    PyObject *leases = PyObject_GetAttr(sm->policy, s_leases);
    if (leases == NULL)
        return -1;
    int32_t i;
    for (i = 0; i < c->nwarps; i++) {
        CWarp *w = &self->warps[c->warps[i]];
        PyObject *key = PyLong_FromLongLong(w->global_warp_id);
        if (key == NULL)
            goto fail;
        PyObject *v = PyDict_GetItemWithError(leases, key);
        int64_t held = 0;
        if (v != NULL) {
            held = PyLong_AsLongLong(v);
            if ((held == -1 && PyErr_Occurred())
                    || PyDict_DelItem(leases, key) < 0) {
                Py_DECREF(key);
                goto fail;
            }
        }
        Py_DECREF(key);
        if (PyErr_Occurred())
            goto fail;
        if (held && !w->lease)
            w->lease_seq = ++self->lease_seq;
        w->lease = held;
    }
    if (PyDict_Size(leases) || free_count < 0
            || free_count > sm->srp_capacity) {
        PyErr_SetString(PyExc_RuntimeError,
                        "an EXIT op changed SRP state beyond the exiting "
                        "CTA's leases");
        goto fail;
    }
    Py_DECREF(leases);
    sm->srp_free = free_count;
    return 0;
fail:
    Py_DECREF(leases);
    return -1;
}

typedef struct {
    int64_t seq;
    int32_t slot;
} CLeaseOrder;

static int
lease_order_cmp(const void *a, const void *b)
{
    int64_t x = ((const CLeaseOrder *)a)->seq;
    int64_t y = ((const CLeaseOrder *)b)->seq;
    return (x > y) - (x < y);
}

static PyObject *
core_write_back_srp(CoreObject *self, PyObject *arg)
{
    /* The SM's counters, _srp_blocked and whole lease table onto its
     * policy, the leases in the order they entered _leases. */
    long sm_id = PyLong_AsLong(arg);
    if (sm_id == -1 && PyErr_Occurred())
        return NULL;
    CSm *sm = sm_arg(self, (int)sm_id);
    if (sm == NULL)
        return NULL;
    if (sm->policy == NULL)
        Py_RETURN_NONE;
    if (set_ll(sm->policy, s_srp_free, sm->srp_free)
            || set_ll(sm->policy, s_srp_acquires, sm->srp_acquires)
            || set_ll(sm->policy, s_srp_denials, sm->srp_denials)
            || set_ll(sm->policy, s_srp_blocked, sm->srp_blocked))
        return NULL;
    CLeaseOrder *order = PyMem_Malloc(
        (self->nwarps ? (size_t)self->nwarps : 1) * sizeof(CLeaseOrder));
    if (order == NULL)
        return PyErr_NoMemory();
    int32_t i, n = 0;
    for (i = 0; i < self->nwarps; i++) {
        CWarp *w = &self->warps[i];
        if (w->lease && self->ctas[w->cta].sm == sm_id) {
            order[n].seq = w->lease_seq;
            order[n].slot = i;
            n++;
        }
    }
    qsort(order, (size_t)n, sizeof(CLeaseOrder), lease_order_cmp);
    PyObject *leases = PyObject_GetAttr(sm->policy, s_leases);
    if (leases == NULL || !PyDict_Check(leases)) {
        PyMem_Free(order);
        if (leases != NULL) {
            Py_DECREF(leases);
            PyErr_SetString(PyExc_TypeError, "_leases must be a dict");
        }
        return NULL;
    }
    PyDict_Clear(leases);
    for (i = 0; i < n; i++) {
        CWarp *w = &self->warps[order[i].slot];
        PyObject *key = PyLong_FromLongLong(w->global_warp_id);
        PyObject *val = PyLong_FromLongLong(w->lease);
        int r = key == NULL || val == NULL
            || PyDict_SetItem(leases, key, val) < 0;
        Py_XDECREF(key);
        Py_XDECREF(val);
        if (r) {
            Py_DECREF(leases);
            PyMem_Free(order);
            return NULL;
        }
    }
    Py_DECREF(leases);
    PyMem_Free(order);
    Py_RETURN_NONE;
}

static PyObject *
core_issue_srp(CoreObject *self, PyObject *args)
{
    /* One RegMutexPolicy.on_issue through the lowered pool outside the
     * issue loop -> (issued, the warp's blocked_until). */
    int sm_id, static_index;
    PyObject *warp;
    long long now;
    if (!PyArg_ParseTuple(args, "iOiL", &sm_id, &warp, &static_index, &now))
        return NULL;
    CSm *sm = sm_arg(self, sm_id);
    if (sm == NULL)
        return NULL;
    if (sm->policy == NULL || self->srp_demand == NULL || static_index < 0
            || static_index >= self->nsrp_demand) {
        PyErr_SetString(PyExc_ValueError,
                        "issue_srp() needs a lowered pool and a static "
                        "index in the demand table");
        return NULL;
    }
    int32_t slot = slot_of(self->warp_slots, warp, "warp");
    if (slot < 0)
        return NULL;
    CWarp *w = &self->warps[slot];
    int ok = srp_on_issue(self, sm, w, static_index, now);
    return Py_BuildValue("OL", ok ? Py_True : Py_False,
                         (long long)w->blocked_until);
}

/* ------------------------------------------------------------------ */
/* The memory hierarchy: merge tables, cache sets, the DRAM channel and
 * mem_access(), which LDG/STG complete through inside the issue loop. */

#define MERGE_EMPTY (-1)

static inline uint32_t
merge_home(const CMerge *t, int64_t key)
{
    return (uint32_t)(((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> 32)
        & (uint32_t)(t->cap - 1);
}

static inline int32_t
merge_find(const CMerge *t, int64_t key)
{
    uint32_t mask = (uint32_t)t->cap - 1, i = merge_home(t, key);
    for (;;) {
        int64_t k = t->keys[i];
        if (k == key)
            return (int32_t)i;
        if (k == MERGE_EMPTY)
            return -1;
        i = (i + 1) & mask;
    }
}

/* Insert a key the table does not hold (a free slot is guaranteed). */
static inline void
merge_put(CMerge *t, int64_t key, int64_t done)
{
    uint32_t mask = (uint32_t)t->cap - 1, i = merge_home(t, key);
    while (t->keys[i] != MERGE_EMPTY)
        i = (i + 1) & mask;
    t->keys[i] = key;
    t->done[i] = done;
    t->count++;
}

/* Move the table into fresh storage of ``cap`` slots, keeping only the
 * entries that complete after ``keep_after``. */
static int
merge_rebuild(CMerge *t, int32_t cap, int64_t keep_after)
{
    int64_t *keys = t->keys, *done = t->done;
    int32_t old = t->cap, i;
    int64_t *nkeys = PyMem_Malloc((size_t)cap * sizeof(int64_t));
    int64_t *ndone = PyMem_Malloc((size_t)cap * sizeof(int64_t));
    if (nkeys == NULL || ndone == NULL) {
        PyMem_Free(nkeys);
        PyMem_Free(ndone);
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < cap; i++)
        nkeys[i] = MERGE_EMPTY;
    t->keys = nkeys;
    t->done = ndone;
    t->cap = cap;
    t->count = 0;
    for (i = 0; i < old; i++)
        if (keys[i] != MERGE_EMPTY && done[i] > keep_after)
            merge_put(t, keys[i], done[i]);
    PyMem_Free(keys);
    PyMem_Free(done);
    return 0;
}

static inline int
merge_insert(CMerge *t, int64_t key, int64_t done)
{
    if ((t->count + 1) * 2 > t->cap
            && merge_rebuild(t, t->cap * 2, INT64_MIN))
        return -1;
    merge_put(t, key, done);
    return 0;
}

/* Delete the entry at ``slot`` (backward-shift deletion: every later
 * entry of the probe run that may move into the hole does). */
static inline void
merge_delete(CMerge *t, int32_t slot)
{
    uint32_t mask = (uint32_t)t->cap - 1, i = (uint32_t)slot, j = i;
    for (;;) {
        j = (j + 1) & mask;
        int64_t k = t->keys[j];
        if (k == MERGE_EMPTY)
            break;
        uint32_t h = merge_home(t, k);
        if (i <= j ? (i < h && h <= j) : (i < h || h <= j))
            continue;
        t->keys[i] = k;
        t->done[i] = t->done[j];
        i = j;
    }
    t->keys[i] = MERGE_EMPTY;
    t->count--;
}

static inline void
cache_touch(CCache *c, int64_t set)
{
    if (!c->touched[set]) {
        c->touched[set] = 1;
        c->touched_list[c->ntouched++] = (int32_t)set;
    }
}

/* ``tag in ways``: its way index in the set, or -1. */
static inline int
cache_way(const CCache *c, int64_t set, int64_t tag)
{
    const int64_t *ways = &c->tags[set * c->assoc];
    int w, n = c->fill[set];
    for (w = 0; w < n; w++)
        if (ways[w] == tag)
            return w;
    return -1;
}

/* ways.remove(tag); ways.insert(0, tag) for the tag at way w. */
static inline void
cache_to_front(CCache *c, int64_t set, int w)
{
    int64_t *ways = &c->tags[set * c->assoc];
    uint8_t *dirty = &c->dirty[set * c->assoc];
    int64_t tag = ways[w];
    uint8_t d = dirty[w];
    memmove(ways + 1, ways, (size_t)w * sizeof(int64_t));
    memmove(dirty + 1, dirty, (size_t)w);
    ways[0] = tag;
    dirty[0] = d;
}

/* ways.insert(0, tag) with its dirty bit, then ways.pop() of the LRU
 * victim when the set overflows; returns 1 when that victim was dirty. */
static inline int
cache_insert(CCache *c, int64_t set, int64_t tag, int is_dirty)
{
    int64_t *ways = &c->tags[set * c->assoc];
    uint8_t *dirty = &c->dirty[set * c->assoc];
    int n = c->fill[set], victim_dirty = 0;
    if (n == c->assoc)
        victim_dirty = dirty[--n];
    else
        c->fill[set] = n + 1;
    memmove(ways + 1, ways, (size_t)n * sizeof(int64_t));
    memmove(dirty + 1, dirty, (size_t)n);
    ways[0] = tag;
    dirty[0] = (uint8_t)is_dirty;
    return victim_dirty;
}

/* transcribes Cache.access_line (the merged-miss path's L1 update). */
static void
cache_access_line(CCache *c, int64_t line, int is_write)
{
    c->last_evicted_dirty = 0;
    int64_t set = line % c->num_sets, tag = line / c->num_sets;
    cache_touch(c, set);
    int w = cache_way(c, set, tag);
    if (w >= 0) {
        cache_to_front(c, set, w);
        if (is_write) {
            c->write_hits += 1;
            c->dirty[set * c->assoc] = 1;
        } else {
            c->read_hits += 1;
        }
        return;
    }
    if (is_write) {
        c->write_misses += 1;
        if (!c->allocate_on_write)
            return;
    } else {
        c->read_misses += 1;
    }
    if (cache_insert(c, set, tag, is_write)) {
        c->last_evicted_dirty = 1;
        c->dirty_evictions += 1;
    }
}

/* Interned "demand_read" / "demand_write" (set up at module init). */
static PyObject *s_demand[2];

/* transcribes DRAM.request: returns the completion cycle, or -1 with an
 * exception set.  The first charge of a class this run inserts its key
 * into bytes_by_class where DRAMStats bookkeeping would; the bytes follow
 * at write-back. */
static int64_t
dram_request(CMem *mem, int64_t now, int64_t nbytes, int cls)
{
    double free = mem->channel_free;
    double start = free > (double)now ? free : (double)now;
    free = start + (double)nbytes / mem->bytes_per_cycle;
    mem->channel_free = free;
    mem->channel_moved = 1;
    mem->requests += 1;
    mem->total_bytes += nbytes;
    if (!mem->class_seen[cls]) {
        int has = PyDict_Contains(mem->by_class, s_demand[cls]);
        if (has < 0)
            return -1;
        if (!has) {
            PyObject *zero = PyLong_FromLong(0);
            int r = zero == NULL ? -1
                : PyDict_SetItem(mem->by_class, s_demand[cls], zero);
            Py_XDECREF(zero);
            if (r < 0)
                return -1;
        }
        mem->class_seen[cls] = 1;
    }
    mem->class_bytes[cls] += nbytes;
    mem->queue_cycles += (int64_t)(start - (double)now);
    return (int64_t)free + mem->latency;
}

/* transcribes MemoryHierarchy._access: returns the completion cycle, or
 * -1 with an exception set.  Addresses are never negative, so C's integer
 * division and remainder are Python's. */
static int64_t
mem_access(CMem *mem, int32_t sm_id, int64_t address, int64_t now,
           int is_write)
{
    const int64_t line_bytes = mem->line_bytes;
    const int64_t line = address / line_bytes;
    const int64_t line_addr = line * line_bytes;

    /* A miss to this line may still be in flight: later accesses (from
     * this SM) complete with it. */
    CMerge *outstanding = &mem->merges[sm_id];
    CCache *l1 = &mem->caches[sm_id];
    int32_t slot = merge_find(outstanding, line_addr);
    if (slot >= 0) {
        int64_t pending = outstanding->done[slot];
        if (pending > now) {
            mem->merged_misses += 1;
            cache_access_line(l1, line, is_write);  /* keep LRU honest */
            return pending;
        }
        merge_delete(outstanding, slot);
    }

    /* L1 probe (write-through / no-write-allocate; last_evicted_dirty is
     * left stale). */
    int64_t set = line % l1->num_sets;
    int64_t tag = line / l1->num_sets;
    cache_touch(l1, set);
    int w = cache_way(l1, set, tag);
    if (w >= 0) {
        cache_to_front(l1, set, w);
        if (is_write) {
            l1->write_hits += 1;
            l1->dirty[set * l1->assoc] = 1;
        } else {
            l1->read_hits += 1;
        }
        return now + mem->l1_hit_lat;
    }
    if (is_write) {
        l1->write_misses += 1;
    } else {
        l1->read_misses += 1;
        if (cache_insert(l1, set, tag, 0))
            l1->dirty_evictions += 1;
    }

    /* L2 probe (allocate-on-write, write-back). */
    CCache *l2 = mem->l2;
    set = line % l2->num_sets;
    tag = line / l2->num_sets;
    cache_touch(l2, set);
    int evicted_dirty = 0;
    int64_t done;
    w = cache_way(l2, set, tag);
    if (w >= 0) {
        cache_to_front(l2, set, w);
        if (is_write) {
            l2->write_hits += 1;
            l2->dirty[set * l2->assoc] = 1;
        } else {
            l2->read_hits += 1;
        }
        done = now + mem->l2_hit_lat;
    } else {
        if (is_write) {
            /* Write-back L2: the store allocates on-chip; DRAM is only
             * charged when a dirty line is eventually evicted. */
            l2->write_misses += 1;
            done = now + mem->l2_hit_lat;
        } else {
            l2->read_misses += 1;
            done = dram_request(mem, now, line_bytes, DEMAND_READ);
            if (done < 0)
                return -1;
            done += mem->l2_hit_lat - mem->l1_hit_lat;
        }
        if (cache_insert(l2, set, tag, is_write)) {
            evicted_dirty = 1;
            l2->dirty_evictions += 1;
        }
    }
    if (evicted_dirty
            && dram_request(mem, now, line_bytes, DEMAND_WRITE) < 0)
        return -1;
    if (!is_write) {
        if (merge_insert(outstanding, line_addr, done))
            return -1;
        if (outstanding->count > 256  /* bound the merge-table size */
                && merge_rebuild(outstanding, outstanding->cap, now))
            return -1;
    }
    return done;
}

/* The DRAM channel is shared with the served ops: hand channel_free to
 * the Python DRAM before returning an op (a served op may queue a bulk
 * transfer behind it or read its backlog) ... */
static int
channel_out(CMem *mem)
{
    if (!mem->channel_moved)
        return 0;
    PyObject *v = PyFloat_FromDouble(mem->channel_free);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(mem->dram, s_channel_free, v);
    Py_DECREF(v);
    mem->channel_moved = 0;
    return r;
}

/* ... and read it back when resume() is called again. */
static int
channel_in(CMem *mem)
{
    PyObject *v = PyObject_GetAttr(mem->dram, s_channel_free);
    if (v == NULL)
        return -1;
    double free = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (free == -1.0 && PyErr_Occurred())
        return -1;
    mem->channel_free = free;
    return 0;
}

/* Lowering (from gpu.hierarchy, once per run) and write-back (once, at
 * run end) of the memory state.  Only sets the run touched are written
 * back, and only what changed in them. */

static PyObject *
core_set_memory(CoreObject *self, PyObject *args)
{
    long long line_bytes, l1_lat, l2_lat, latency;
    double bytes_per_cycle;
    PyObject *dram, *by_class;
    if (!PyArg_ParseTuple(args, "LLLOdLO!", &line_bytes, &l1_lat, &l2_lat,
                          &dram, &bytes_per_cycle, &latency, &PyDict_Type,
                          &by_class))
        return NULL;
    CMem *mem = &self->mem;
    if (self->sms == NULL || mem->caches != NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "set_memory() needs a fresh initialized core");
        return NULL;
    }
    if (line_bytes <= 0 || !(bytes_per_cycle > 0)) {
        PyErr_SetString(PyExc_ValueError,
                        "line size and bandwidth must be positive");
        return NULL;
    }
    mem->caches = PyMem_Calloc((size_t)self->num_sms + 1, sizeof(CCache));
    mem->merges = PyMem_Calloc((size_t)self->num_sms, sizeof(CMerge));
    if (mem->caches == NULL || mem->merges == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    int32_t i;
    for (i = 0; i < self->num_sms; i++)
        if (merge_rebuild(&mem->merges[i], 16, INT64_MAX))
            return NULL;
    mem->l2 = &mem->caches[self->num_sms];
    mem->line_bytes = line_bytes;
    mem->l1_hit_lat = l1_lat;
    mem->l2_hit_lat = l2_lat;
    mem->bytes_per_cycle = bytes_per_cycle;
    mem->latency = latency;
    Py_INCREF(dram);
    mem->dram = dram;
    Py_INCREF(by_class);
    mem->by_class = by_class;
    if (channel_in(mem) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static CCache *
cache_arg(CoreObject *self, int index)
{
    if (self->mem.caches == NULL || index < 0 || index > self->num_sms) {
        PyErr_SetString(PyExc_ValueError, "bad cache index");
        return NULL;
    }
    return &self->mem.caches[index];
}

static PyObject *
core_lower_cache(CoreObject *self, PyObject *args)
{
    int index, assoc, allocate_on_write, last_evicted_dirty;
    long long num_sets;
    PyObject *sets, *dirty;
    if (!PyArg_ParseTuple(args, "iLippO!O", &index, &num_sets, &assoc,
                          &allocate_on_write, &last_evicted_dirty,
                          &PyList_Type, &sets, &dirty))
        return NULL;
    CCache *c = cache_arg(self, index);
    if (c == NULL)
        return NULL;
    if (num_sets <= 0 || num_sets > INT32_MAX || assoc <= 0
            || PyList_GET_SIZE(sets) != num_sets) {
        PyErr_SetString(PyExc_ValueError, "malformed cache geometry");
        return NULL;
    }
    cache_free(c);
    size_t nways = (size_t)num_sets * (size_t)assoc;
    c->num_sets = num_sets;
    c->assoc = assoc;
    c->allocate_on_write = allocate_on_write;
    c->last_evicted_dirty = last_evicted_dirty;
    c->tags = PyMem_Calloc(nways, sizeof(int64_t));
    c->dirty = PyMem_Calloc(nways, 1);
    c->fill = PyMem_Calloc((size_t)num_sets, sizeof(int32_t));
    c->tags0 = PyMem_Calloc(nways, sizeof(int64_t));
    c->dirty0 = PyMem_Calloc(nways, 1);
    c->fill0 = PyMem_Calloc((size_t)num_sets, sizeof(int32_t));
    c->touched = PyMem_Calloc((size_t)num_sets, 1);
    c->touched_list = PyMem_Calloc((size_t)num_sets, sizeof(int32_t));
    if (c->tags == NULL || c->dirty == NULL || c->fill == NULL
            || c->tags0 == NULL || c->dirty0 == NULL || c->fill0 == NULL
            || c->touched == NULL || c->touched_list == NULL) {
        cache_free(c);
        PyErr_NoMemory();
        return NULL;
    }
    Py_ssize_t set, w;
    for (set = 0; set < num_sets; set++) {
        PyObject *ways = PyList_GET_ITEM(sets, set);
        if (!PyList_Check(ways) || PyList_GET_SIZE(ways) > assoc) {
            cache_free(c);
            PyErr_SetString(PyExc_ValueError,
                            "cache set is not a list within its ways");
            return NULL;
        }
        for (w = 0; w < PyList_GET_SIZE(ways); w++) {
            long long tag = PyLong_AsLongLong(PyList_GET_ITEM(ways, w));
            if (tag == -1 && PyErr_Occurred()) {
                cache_free(c);
                return NULL;
            }
            c->tags[set * assoc + w] = tag;
        }
        c->fill[set] = (int32_t)PyList_GET_SIZE(ways);
    }
    /* Cache._dirty keys (set_index, tag) become per-way bits: every key
     * names a resident line (an eviction drops its key). */
    PyObject *it = PyObject_GetIter(dirty), *key;
    if (it == NULL) {
        cache_free(c);
        return NULL;
    }
    while ((key = PyIter_Next(it)) != NULL) {
        long long ks = -1, kt = 0;
        if (PyTuple_Check(key) && PyTuple_GET_SIZE(key) == 2) {
            ks = PyLong_AsLongLong(PyTuple_GET_ITEM(key, 0));
            kt = PyLong_AsLongLong(PyTuple_GET_ITEM(key, 1));
        }
        Py_DECREF(key);
        int way = (ks >= 0 && ks < num_sets && !PyErr_Occurred())
            ? cache_way(c, ks, kt) : -1;
        if (way < 0) {
            Py_DECREF(it);
            cache_free(c);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "dirty key names no resident line");
            return NULL;
        }
        c->dirty[ks * assoc + way] = 1;
    }
    Py_DECREF(it);
    if (PyErr_Occurred()) {
        cache_free(c);
        return NULL;
    }
    memcpy(c->tags0, c->tags, nways * sizeof(int64_t));
    memcpy(c->dirty0, c->dirty, nways);
    memcpy(c->fill0, c->fill, (size_t)num_sets * sizeof(int32_t));
    Py_RETURN_NONE;
}

static PyObject *
core_lower_merges(CoreObject *self, PyObject *args)
{
    int sm_id;
    PyObject *table, *key, *value;
    if (!PyArg_ParseTuple(args, "iO!", &sm_id, &PyDict_Type, &table))
        return NULL;
    if (self->mem.merges == NULL || sm_arg(self, sm_id) == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "memory not set up");
        return NULL;
    }
    CMerge *t = &self->mem.merges[sm_id];
    int32_t cap = 16;
    while (cap < 2 * (PyDict_GET_SIZE(table) + 1))
        cap *= 2;
    if (merge_rebuild(t, cap, INT64_MAX))
        return NULL;
    Py_ssize_t pos = 0;
    while (PyDict_Next(table, &pos, &key, &value)) {
        long long line_addr = PyLong_AsLongLong(key);
        long long done = PyLong_AsLongLong(value);
        if (PyErr_Occurred())
            return NULL;
        if (line_addr < 0) {
            PyErr_SetString(PyExc_ValueError, "negative line address");
            return NULL;
        }
        merge_put(t, line_addr, done);
    }
    Py_RETURN_NONE;
}

/* Add (add=1) or discard a (set_index, tag) key of Cache._dirty. */
static int
dirty_key(PyObject *dirty, int64_t set, int64_t tag, int add)
{
    PyObject *key = Py_BuildValue("(LL)", (long long)set, (long long)tag);
    if (key == NULL)
        return -1;
    int r = add ? PySet_Add(dirty, key) : PySet_Discard(dirty, key);
    Py_DECREF(key);
    return r < 0 ? -1 : 0;
}

/* Write one touched set back onto its Python list and the dirty keys. */
static int
set_write_back(CCache *c, int64_t set, PyObject *ways, PyObject *dirty)
{
    size_t base = (size_t)set * c->assoc;
    const int64_t *tags = &c->tags[base], *tags0 = &c->tags0[base];
    const uint8_t *d = &c->dirty[base], *d0 = &c->dirty0[base];
    int n = c->fill[set], n0 = c->fill0[set], i, j;
    if (!PyList_Check(ways) || PyList_GET_SIZE(ways) != n0) {
        PyErr_SetString(PyExc_RuntimeError,
                        "cache set changed outside the core");
        return -1;
    }
    /* Dirty keys: drop the lowered ones no longer dirty, add the rest. */
    for (i = 0; i < n0; i++) {
        if (!d0[i])
            continue;
        for (j = 0; j < n && tags[j] != tags0[i]; j++)
            ;
        if ((j == n || !d[j]) && dirty_key(dirty, set, tags0[i], 0))
            return -1;
    }
    for (j = 0; j < n; j++) {
        if (!d[j])
            continue;
        for (i = 0; i < n0 && tags0[i] != tags[j]; i++)
            ;
        if ((i == n0 || !d0[i]) && dirty_key(dirty, set, tags[j], 1))
            return -1;
    }
    /* Tags in MRU order, reusing the list's int objects. */
    if (n != n0 || memcmp(tags, tags0, (size_t)n * sizeof(int64_t))) {
        PyObject *fresh = PyList_New(n);
        if (fresh == NULL)
            return -1;
        for (j = 0; j < n; j++) {
            PyObject *v = NULL;
            for (i = 0; i < n0; i++) {
                if (tags0[i] == tags[j]) {
                    v = PyList_GET_ITEM(ways, i);
                    Py_INCREF(v);
                    break;
                }
            }
            if (v == NULL && (v = PyLong_FromLongLong(tags[j])) == NULL) {
                Py_DECREF(fresh);
                return -1;
            }
            PyList_SET_ITEM(fresh, j, v);
        }
        int r = PyList_SetSlice(ways, 0, n0, fresh);
        Py_DECREF(fresh);
        if (r < 0)
            return -1;
    }
    memcpy(&c->tags0[base], tags, (size_t)n * sizeof(int64_t));
    memcpy(&c->dirty0[base], d, (size_t)n);
    c->fill0[set] = n;
    return 0;
}

static PyObject *
core_write_back_cache(CoreObject *self, PyObject *args)
{
    int index;
    PyObject *sets, *dirty;
    if (!PyArg_ParseTuple(args, "iO!O!", &index, &PyList_Type, &sets,
                          &PySet_Type, &dirty))
        return NULL;
    CCache *c = cache_arg(self, index);
    if (c == NULL)
        return NULL;
    if (c->tags == NULL || PyList_GET_SIZE(sets) != c->num_sets) {
        PyErr_SetString(PyExc_ValueError, "cache geometry changed");
        return NULL;
    }
    int32_t k;
    for (k = 0; k < c->ntouched; k++) {
        int32_t set = c->touched_list[k];
        c->touched[set] = 0;
        if (set_write_back(c, set, PyList_GET_ITEM(sets, set), dirty))
            return NULL;
    }
    c->ntouched = 0;
    PyObject *counts = Py_BuildValue(
        "LLLLLO", (long long)c->read_hits, (long long)c->read_misses,
        (long long)c->write_hits, (long long)c->write_misses,
        (long long)c->dirty_evictions,
        c->last_evicted_dirty ? Py_True : Py_False);
    if (counts != NULL)
        c->read_hits = c->read_misses = c->write_hits = c->write_misses
            = c->dirty_evictions = 0;
    return counts;
}

static PyObject *
core_write_back_merges(CoreObject *self, PyObject *args)
{
    int sm_id;
    PyObject *table;
    if (!PyArg_ParseTuple(args, "iO!", &sm_id, &PyDict_Type, &table))
        return NULL;
    if (self->mem.merges == NULL || sm_arg(self, sm_id) == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "memory not set up");
        return NULL;
    }
    CMerge *t = &self->mem.merges[sm_id];
    PyDict_Clear(table);
    int32_t i;
    for (i = 0; i < t->cap; i++) {
        if (t->keys[i] == MERGE_EMPTY)
            continue;
        PyObject *key = PyLong_FromLongLong(t->keys[i]);
        PyObject *value = PyLong_FromLongLong(t->done[i]);
        int r = (key == NULL || value == NULL) ? -1
            : PyDict_SetItem(table, key, value);
        Py_XDECREF(key);
        Py_XDECREF(value);
        if (r < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
core_memory_counts(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    /* (loads, stores, merged_misses, dram requests, dram bytes, queue
     *  cycles, demand_read bytes, demand_write bytes); resets them. */
    CMem *mem = &self->mem;
    PyObject *counts = Py_BuildValue(
        "LLLLLLLL", (long long)mem->loads, (long long)mem->stores,
        (long long)mem->merged_misses, (long long)mem->requests,
        (long long)mem->total_bytes, (long long)mem->queue_cycles,
        (long long)mem->class_bytes[DEMAND_READ],
        (long long)mem->class_bytes[DEMAND_WRITE]);
    if (counts != NULL) {
        mem->loads = mem->stores = mem->merged_misses = 0;
        mem->requests = mem->total_bytes = mem->queue_cycles = 0;
        mem->class_bytes[DEMAND_READ] = mem->class_bytes[DEMAND_WRITE] = 0;
    }
    return counts;
}

/* ------------------------------------------------------------------ */
/* The issue loop.  Helpers: operand-ready cycle with the operand memo
 * (chk_pos / chk_ready; the header says why it is exact), and the inlined
 * AddressModel.address_for. */

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

/* Park an EXIT; the caller returns OP_EXIT. */
static inline int
park_exit(CSm *sm, int32_t ws, int from_scan, int s)
{
    sm->pend_exit = 1;
    sm->pend_warp = ws;
    sm->pend_from_scan = from_scan;
    sm->pend_sched = s;
    sm->sched_idx = s;
    return OP_EXIT;
}

/* An LDG / STG: the inlined AddressModel.address_for, then the access
 * through the hierarchy (a load's completion becomes its destination's
 * ready cycle).  Returns -1 on error. */
static inline int
issue_mem(CoreObject *self, int32_t sm_id, CWarp *w, CMeta *m, int64_t now)
{
    CMem *mem = &self->mem;
    int64_t address = mem_address(self, w, m);
    if (m->fkind == 1) {
        mem->loads += 1;
        int64_t done = mem_access(mem, sm_id, address, now, 0);
        if (done < 0)
            return -1;
        w->ready_at[m->dest] = done;
        if (done > w->peak_ready)
            w->peak_ready = done;
        return 0;
    }
    mem->stores += 1;
    return mem_access(mem, sm_id, address, now, 1) < 0 ? -1 : 0;
}

/* Run SM.step's scheduler loop from sm->sched_idx: per awake scheduler,
 * GTOScheduler.issue (the greedy retry of the current warp, then the
 * oldest-first scan) with each attempt an inlined SM._try_issue, whose
 * dispatch goes through the collapsed kind.  Returns OP_EXIT when it
 * parks an EXIT, 0 when the loop completes, -1 on error.  The issue
 * counters are deferred and the short-stall peek omitted (see the
 * header).  Where SM._try_issue calls the policy's issue hook (operands
 * ready, before the dispatch) an SM with srp_issue runs srp_on_issue; any
 * other SM transcribes RegisterFilePolicy.on_issue: there is no hook to
 * call. */
static int
issue_loop(CoreObject *self, int32_t sm_id, CSm *sm, CSched *scheds,
           int64_t now)
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
                int32_t si = self->traces[w->trace].idx[pos];
                CMeta *m = &self->meta[si];
                int64_t rdy = operands_ready(self, w, m, pos, now);
                if (rdy > now) {
                    w->blocked_until = rdy;
                    w->chk_pos = pos;
                    w->chk_ready = rdy;
                    if (rdy - now >= thresh
                            && on_long_block(self, sm, w, now))
                        return -1;
                } else if (!sm->srp_issue
                           || srp_on_issue(self, sm, w, si, now)) {
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
                        if (issue_mem(self, sm_id, w, m, now))
                            return -1;
                    } else if (fk == 3) {
                        if (arrive_at_barrier(self, w, now))
                            wake_schedulers(sm, scheds, nsched);
                        else if (w->blocked_until == CK_FOREVER
                                 && on_long_block(self, sm, w, now))
                            return -1;
                    } else if (fk == 4) {
                        return park_exit(sm, cur, 0, s);
                    }
                    /* fk == 5: BRA / STS, no timing effect */
                    sm->issued += 1;
                    continue;      /* next scheduler */
                }
                /* blocked or SRP-denied greedy warp: fall through to the
                 * scan */
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
            int32_t si = self->traces[w->trace].idx[pos];
            CMeta *m = &self->meta[si];
            int64_t rdy = operands_ready(self, w, m, pos, now);
            if (rdy > now) {
                w->blocked_until = rdy;
                w->chk_pos = pos;
                w->chk_ready = rdy;
                if (rdy - now >= thresh && on_long_block(self, sm, w, now))
                    return -1;
                continue;
            }
            /* SRP-denied: the scan moves on to the next member. */
            if (sm->srp_issue && !srp_on_issue(self, sm, w, si, now))
                continue;
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
                if (issue_mem(self, sm_id, w, m, now))
                    return -1;
            } else if (fk == 3) {
                if (arrive_at_barrier(self, w, now))
                    wake_schedulers(sm, scheds, nsched);
                else if (w->blocked_until == CK_FOREVER
                         && on_long_block(self, sm, w, now))
                    return -1;
            } else if (fk == 4) {
                return park_exit(sm, ws, 1, s);
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
step_sm(CoreObject *self, int32_t sm_id, CSm *sm, CSched *scheds)
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
        op = issue_loop(self, sm_id, sm, scheds, now);
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
         * cooldown and, with no park candidate, only re-arms it; nor is it
         * called while the policy cannot act (the engine's idle gate). */
        if (sm->needs_idle && (sm->active_count || sm->pend_count)
                && now >= sm->next_idle) {
            if (idle_gate_open(self, sm, now)
                    && has_park_candidate(self, sm, now))
                return OP_IDLE;
            sm->next_idle = now + self->idle_cooldown;
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

/* SM.accumulate's idle taxonomy: one classify_idle call per advance
 * (RegMutex's is stateful, so the cadence is part of the result). */
static inline void
idle_advance(CSm *sm, int64_t dt)
{
    if (sm->active_count || sm->pend_count) {
        sm->idle += dt;
        /* transcribes RegMutexPolicy.classify_idle: "srp" consumes the
         * denial count; otherwise its super() call, the base body. */
        if (sm->srp_classify
                && (sm->srp_free == 0 || sm->srp_blocked > 0)) {
            sm->srp_blocked = 0;
            sm->srp_stall += dt;
        }
        /* transcribes RegisterFilePolicy.classify_idle: "rf" */
        else if (sm->blocked_on_rf)
            sm->rf += dt;
    }
}

static PyObject *
yield_op(CoreObject *self, int kind, int64_t now, int sm_id, PyObject *a)
{
    if (channel_out(&self->mem) < 0)
        return NULL;
    return Py_BuildValue("iLiO", kind, (long long)now, sm_id, a);
}

static int
memory_lowered(CoreObject *self)
{
    CMem *mem = &self->mem;
    int32_t i;
    if (mem->caches == NULL)
        return 0;
    for (i = 0; i <= self->num_sms; i++)
        if (mem->caches[i].tags == NULL)
            return 0;
    return 1;
}

static PyObject *
core_access(CoreObject *self, PyObject *args)
{
    /* One access through the lowered hierarchy outside the issue loop,
     * with the channel hand-off of an op around it. */
    int sm_id, is_write;
    long long address, now;
    if (!PyArg_ParseTuple(args, "iLLp", &sm_id, &address, &now, &is_write))
        return NULL;
    if (sm_arg(self, sm_id) == NULL)
        return NULL;
    if (!memory_lowered(self) || address < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "access() needs a lowered hierarchy and an address "
                        ">= 0");
        return NULL;
    }
    if (channel_in(&self->mem) < 0)
        return NULL;
    int64_t done = mem_access(&self->mem, sm_id, address, now, is_write);
    if (done < 0 || channel_out(&self->mem) < 0)
        return NULL;
    return PyLong_FromLongLong(done);
}

static PyObject *
core_executed_cycles(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->executed);
}

static PyObject *
core_resume(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->sms == NULL || self->status || !memory_lowered(self)
            || !srp_lowered(self)) {
        PyErr_SetString(PyExc_RuntimeError,
                        "resume() on an unlowered or finished core");
        return NULL;
    }
    if (channel_in(&self->mem) < 0)
        return NULL;
    const int nsched = self->nsched;
    int timed_out = 0;

    /* Complete the parked EXIT, if any: promote a scan-path warp to
     * current, count the issue, next scheduler. */
    if (self->cycle_open && self->cur_sm < self->num_sms) {
        CSm *sm = &self->sms[self->cur_sm];
        if (sm->pend_exit) {
            CSched *scheds = &self->scheds[(size_t)self->cur_sm * nsched];
            if (sm->policy != NULL
                    && srp_in(self, sm,
                              &self->ctas[self->warps[sm->pend_warp].cta]))
                return NULL;
            if (sm->pend_from_scan)
                scheds[sm->pend_sched].current = sm->pend_warp;
            sm->pend_exit = 0;
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
            self->executed++;
            self->cur_sm = 0;
            self->any_issued = 0;
            for (s = 0; s < self->num_sms; s++)
                self->sms[s].phase = PH_SETTLE;
        }
        while (self->cur_sm < self->num_sms) {
            int32_t id = self->cur_sm;
            int op = step_sm(self, id, &self->sms[id],
                             &self->scheds[(size_t)id * nsched]);
            if (op < 0)
                return NULL;
            if (op) {
                CSm *sm = &self->sms[id];
                /* EXIT carries the warp; IDLE carries the core's idle
                 * cooldown, which it may have re-armed since Python last
                 * saw it. */
                if (op == OP_EXIT) {
                    if (sm->policy != NULL
                            && srp_out(self, sm, &self->ctas[
                                self->warps[sm->pend_warp].cta]))
                        return NULL;
                    return yield_op(self, op, now, id,
                                    self->warp_objs[sm->pend_warp]);
                }
                PyObject *a = PyLong_FromLongLong(
                    op == OP_IDLE ? sm->next_idle : 0);
                if (a == NULL)
                    return NULL;
                PyObject *t = yield_op(self, op, now, id, a);
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
                /* SM.next_event, the sleep caches standing in for its
                 * active-warp scan (see the header) */
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
                return yield_op(self, OP_DEADLOCK, now, -1, Py_None);
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
        return yield_op(self, OP_DONE, now, -1,
                        timed_out ? Py_True : Py_False);
    }
}

/* ------------------------------------------------------------------ */
static PyMethodDef core_methods[] = {
    {"add_trace", (PyCFunction)core_add_trace, METH_O,
     "Lower one dynamic trace (sequence of static indices) -> index."},
    {"new_cta", (PyCFunction)core_new_cta, METH_VARARGS,
     "new_cta(cta, cta_id, sm_id) -> cta slot."},
    {"new_warp", (PyCFunction)core_new_warp, METH_VARARGS,
     "new_warp(warp, cta_slot, trace_idx, global_warp_id) -> warp slot."},
    {"set_policy", (PyCFunction)core_set_policy, METH_VARARGS,
     "set_policy(sm_id, sm, schedulers, needs_tick, needs_idle, "
     "srp_issue, srp_classify): bind one SM and say which RegMutexPolicy "
     "bodies it runs."},
    {"sync", (PyCFunction)core_sync, METH_O,
     "sync(sm_id): re-import the SM's schedulers and active-CTA list."},
    {"mirror", (PyCFunction)core_mirror, METH_VARARGS,
     "mirror(sm_id, active, pending_and_transit, active_warps, dirty, "
     "transit_min, wake_time, next_event, idle_wake, idle_backlog_limit, "
     "next_idle_check (-1 keeps), blocked_on_rf, grid_remaining)."},
    {"reimport_cta", (PyCFunction)core_reimport_cta, METH_O,
     "reimport_cta(cta): its barrier count and warp states."},
    {"export", (PyCFunction)core_export, METH_VARARGS,
     "export(sm_id, with_warps): write the SM's scheduler (and active "
     "CTA / warp) state onto the Python objects."},
    {"finish", (PyCFunction)core_finish, METH_O,
     "finish(sm_id) -> (cta_sum, pending_sum, warp_sum, max_resident, "
     "idle, rf_depletion, srp_stall, next_idle_check, stall_latencies)."},
    {"lower_srp", (PyCFunction)core_lower_srp, METH_VARARGS,
     "lower_srp(sm_id, policy, demand_or_None, srp_block, retry_interval):"
     " lower the SM's shared register pool (its _leases must be empty)."},
    {"write_back_srp", (PyCFunction)core_write_back_srp, METH_O,
     "write_back_srp(sm_id): the pool's counters and leases onto the "
     "policy."},
    {"issue_srp", (PyCFunction)core_issue_srp, METH_VARARGS,
     "issue_srp(sm_id, warp, static_index, now) -> (issued, "
     "blocked_until): one RegMutexPolicy.on_issue through the lowered "
     "pool."},
    {"set_memory", (PyCFunction)core_set_memory, METH_VARARGS,
     "set_memory(line_bytes, l1_hit_latency, l2_hit_latency, dram, "
     "bytes_per_cycle, dram_latency, bytes_by_class): set up the "
     "hierarchy and bind the DRAM channel."},
    {"lower_cache", (PyCFunction)core_lower_cache, METH_VARARGS,
     "lower_cache(index, num_sets, assoc, allocate_on_write, "
     "last_evicted_dirty, sets, dirty): index < num_sms is that SM's L1, "
     "num_sms the L2."},
    {"lower_merges", (PyCFunction)core_lower_merges, METH_VARARGS,
     "lower_merges(sm_id, outstanding): the SM's outstanding-miss table."},
    {"write_back_cache", (PyCFunction)core_write_back_cache, METH_VARARGS,
     "write_back_cache(index, sets, dirty) -> (read_hits, read_misses, "
     "write_hits, write_misses, dirty_evictions, last_evicted_dirty): "
     "writes the touched sets back, returns the counter increments."},
    {"write_back_merges", (PyCFunction)core_write_back_merges,
     METH_VARARGS,
     "write_back_merges(sm_id, outstanding): refill the table dict."},
    {"memory_counts", (PyCFunction)core_memory_counts, METH_NOARGS,
     "memory_counts() -> (loads, stores, merged_misses, dram_requests, "
     "dram_bytes, queue_cycles, demand_read_bytes, demand_write_bytes)."},
    {"access", (PyCFunction)core_access, METH_VARARGS,
     "access(sm_id, address, now, is_write) -> completion cycle: one "
     "MemoryHierarchy._access through the lowered hierarchy."},
    {"resume", (PyCFunction)core_resume, METH_NOARGS,
     "resume() -> (kind, cycle, sm_id, arg) op descriptor."},
    {"executed_cycles", (PyCFunction)core_executed_cycles, METH_NOARGS,
     "executed_cycles() -> how many cycles the clock has opened (the op "
     "being served is in the last of them)."},
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
        {&s_channel_free, "_channel_free"},
        {&s_srp_free, "srp_free"}, {&s_srp_capacity, "srp_capacity"},
        {&s_srp_acquires, "srp_acquires"}, {&s_srp_denials, "srp_denials"},
        {&s_srp_blocked, "_srp_blocked"}, {&s_leases, "_leases"},
        {&s_demand[DEMAND_READ], "demand_read"},
        {&s_demand[DEMAND_WRITE], "demand_write"},
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
