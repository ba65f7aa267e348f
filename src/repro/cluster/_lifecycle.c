/* The request lifecycle of repro.cluster.fastpath, compiled.
 *
 * One Core object runs one simulation's state machine -- FastConnection's
 * _begin, _decide, _fetch, _advance, _complete with the single-server
 * Resource bookkeeping inlined, the in-place start, the steady-state
 * admission, and on a faulty run FaultyConnection's stages too.  Its
 * events go through the run's own compiled Engine
 * (repro/sim/_engine.c, built into the same extension): each is a native
 * event, the stage's tag and the connection's number under a seq the
 * engine draws, pushed on its heap or staged for the current instant
 * where fastpath.py pushes and stages its own, and Engine.run dispatches
 * them with no Python object made for them.  fastpath.py is the
 * reference: every line below mirrors one there, float operation for
 * float operation (built with -ffp-contract=off, so no multiply-add is
 * fused), and the identity and differential suites compare the two byte
 * for byte.
 *
 * Python is called for what the policy and the cache decide
 * (policy.choose, cache.access) and for the rare paths: a multi-chunk
 * read plan (DiskTimes.chunk_plan), Policy.on_dispatch / on_complete on
 * their error branches, a rehandoff's or a retry's detach and attach, a
 * retry's back-off and a lost request's record.  The policy's hot state
 * (loads, _alive, _min_load, _min_cursor, dispatches, completions), the
 * tracker's lists, the membership epochs and the fault runtime's dark
 * list stay in their Python objects, read and written in place, because
 * choose, the tracker and the fault transitions read or write them;
 * everything only the lifecycle reads (resources, node and front-end
 * counters, the served and retried counts) lives here and is written
 * back by finish(), when the run ends.
 *
 * A traced run (fe.tracer set) runs here too.  Each stage that ends a
 * phase times it in the connection behind one ``if (s->rows)`` test, as
 * fastpath.py does behind ``if self.tracer``, and a completed request
 * appends its span as one row to the tracer's chunk (the layout of
 * repro.obs.span: ROW_INTS, ROW_FLOATS, one load per node), whose
 * numpy buffers the core writes in place, a lost request's row included;
 * the tracer's flush and sample are called when the chunk fills and when
 * a sample is due.  The chunk's text comes from render_rows at the
 * bottom of this file.
 *
 * A faulty run (fe.faults set) has a start stage of its own (the
 * dark-node check, ST_DISPATCH), the client timeout and the back-off
 * (ST_TIMED_OUT, ST_RETRY); the plain stages test one per-run flag
 * where a served request is booked and a fetch decided (``watched``)
 * and one where a batch's next request starts (``reroute``), the tests
 * that were there for the tracer and for rehandoff.  The fault
 * runtime's transitions are Python events on the same engine; each tells
 * the core what it changed (FrontEnd's fail_node and join_node the
 * admission limit, set on max_in_flight, and a join admits through
 * admit(); a brownout the node's cost constants, reload_node) and flushes
 * the rows before its fault record (flush_rows).  The degraded-mode
 * series is the runtime's: served requests go to its record_served only
 * when the schedule has a bucket width, and are counted here either way,
 * as lost ones are.
 *
 * A sanitized run (FrontEnd.start passes the InvariantSanitizer whose
 * after_event is the engine's hook) runs here too.  The engine calls
 * check_event where it would call that hook, and an in-place start calls
 * sanitize itself, as fastpath.py calls hook(now, begin): the per-event
 * laws of after_event -- the clock, in_flight against the limit and its
 * drain allowance, request conservation both ways, served + lost ==
 * completed -- are checked over the books held here, and a violation is
 * raised through the sanitizer's _fail with the reference's text and the
 * reference's stage function named.  Every deep_interval events the
 * books the deep sweep reads are written back (write_books) and its
 * _deep_check runs on them, unchanged; the sanitizer's events_seen,
 * clock and allowance go back at each sweep and at finish().
 *
 * repro.sim.native builds this file with the engine on first use and
 * FrontEnd.start() decides when a run may take it; runs with an engine
 * hook that is not their sanitizer's, a profiler, GMS, LB/GC hit hints
 * or several disks per node take fastpath.py.
 */

#include "_engine.h"
#include <stddef.h>
#include <string.h>
#include <structmember.h>

enum { ST_BEGIN, ST_DECIDE, ST_ADVANCE, ST_COMPLETE, ST_COALESCED, ST_DISPATCH, ST_TIMED_OUT,
       ST_RETRY };

/* What a connection does after its current data service. */
enum { PLAN_EMPTY, PLAN_TRANSMIT, PLAN_CHUNKED };

/* The span-row layout of repro.obs.span: ROW_OUTCOMES, ROW_PHASES (bit
 * k of a row's mask: phase k was paid), ROW_INTS and ROW_FLOATS. */
enum { OUT_HIT, OUT_MISS, OUT_COALESCED, OUT_GMS_LOCAL, OUT_GMS_REMOTE, OUT_DYNAMIC, OUT_LOST };
enum { PH_ESTABLISH, PH_QUEUE, PH_DISK, PH_CPU, PH_TEARDOWN, PH_RETRY, NUM_PHASES };
enum { R_REQ, R_TARGET, R_SIZE, R_NODE, R_OUTCOME, R_MASK, ROW_INTS };
enum { R_ARRIVAL, R_COMPLETE, R_PHASES, ROW_FLOATS = R_PHASES + NUM_PHASES };

/* A waiting job: the event its start will schedule (Resource._waiting). */
typedef struct {
    double duration;
    int stage;
    int conn;
} Job;

typedef struct {
    PyObject *obj; /* the Python Resource, written back at the end */
    double busy_integral;
    double last_change;
    long long jobs_served;
    int busy;
    Job *jobs; /* FIFO ring */
    Py_ssize_t head, len, cap;
} Res;

typedef struct {
    PyObject *obj;        /* BackendNode */
    PyObject *access;     /* node.cache.access */
    PyObject *disk_times; /* DiskTimes: chunk_plan for multi-chunk files */
    const double *single; /* DiskTimes.single */
    long long chunk_bytes;
    double conn_time, teardown_time, per_unit, cpu_speed;
    int coalesce;
    long long cache_hits, cache_misses, disk_reads, coalesced_reads;
    long long requests_served, bytes_served, dynamic_requests;
} Node;

typedef struct {
    int node;
    int res; /* index into Core.res of the data service in flight */
    int reading;
    int plan_kind;
    Py_ssize_t target, size, index, last, plan_i, plan_len;
    long long epoch;
    double start;
    double plan_cpu;   /* PLAN_TRANSMIT: the one CPU step; PLAN_CHUNKED: the
                        * transmit rate when the plan was made (a brownout
                        * changes new plans only) */
    PyObject *pairs;   /* PLAN_CHUNKED: ((disk_time, cpu_units), ...) */
    int read_next;     /* next registered read of the same target */
    int wait_head, wait_tail, wait_next; /* coalesced waiters, in order */
} Conn;

/* The span of a traced connection's request (Core.spans, beside the
 * connections, so an untraced run's connections stay their size): its
 * number, the phases paid (mask) and when the one being timed began,
 * the outcome, and on a disk read whether the service in flight is the
 * disk's.  Its dispatch-time loads are the connection's row of
 * Core.span_loads. */
typedef struct {
    long long req;
    double mark;
    double ph[NUM_PHASES];
    int mask, outcome, on_disk;
} Span;

/* The fault state of a faulty run's connection (Core.tries, beside the
 * connections like the spans): when its start event ran and the request
 * it started with -- that request's delay runs from there, however many
 * attempts it takes -- the attempts so far, and whether the request
 * being served missed. */
typedef struct {
    double t_first;
    Py_ssize_t first;
    long long attempts;
    int missed;
} Tries;

typedef struct {
    double *table;
    PyObject *source;
} Table;

typedef struct Core {
    PyObject_HEAD
    PyObject *fe, *policy, *policy_dict, *choose;
    PyObject *p_loads, *p_alive, *epoch, *size_list;
    PyObject *t_under_since, *t_under_time, *t_is_under, *observe;
    PyObject *delays;
    Py_buffer targets;
    int have_targets;
    char tkind;
    Py_ssize_t tstride;
    double t_threshold;
    Py_ssize_t n, next, rpc, num_targets;
    long long in_flight, max_in_flight;
    int rehandoff, collect_delays;
    long long completed, connections, rehandoffs, orphaned;
    double total_delay;
    long long *pn_completions;
    double *pn_delay;
    int num_nodes;
    Node *nodes;
    Res *res; /* cpu of node i is res[2i], its disk res[2i + 1] */
    long long *units;
    double *dyn; /* per-target CGI cost, or NULL */
    Table *tables;
    int num_tables, tables_cap;
    Conn *conns;
    int nconns, conn_cap;
    int *pool;
    int npool;
    int *pending; /* target -> first registered read (a conn), or -1 */
    EngineObject *eng; /* fe.engine, the compiled one; this Core is its client */
    double now;        /* the clock, read when a stage starts */
    int ran;
    /* Tracing: the tracer (NULL: none, and rows is 0), its chunk's three
     * buffers and the rows written since its last flush, the next span
     * number and when the next sample is due (its seq, next_sample_t). */
    PyObject *tracer;
    int rows;
    Py_buffer chunk[3];
    int have_chunk;
    Span *spans;
    long long *rint, *rload, *span_loads;
    double *rflt;
    Py_ssize_t rcap, rfill;
    long long next_req;
    double next_sample;
    /* A faulty run: the fault runtime (NULL: none), its dark list (read
     * in place), the retry policy's timeout, limit and back-off, the
     * goodput record (NULL: the schedule keeps no series, and a served
     * request is only counted), the lost record, the connections' fault
     * state and the counters written back. */
    PyObject *faults, *dark, *backoff, *record_served, *record_lost;
    double timeout;
    long long max_retries;
    Tries *tries;
    long long served, retried, lost;
    /* A sanitized run: the InvariantSanitizer whose after_event is the
     * engine's hook (NULL: none), its _deep_check and _fail, the stage
     * function of the reference each tag stands for (what a violation
     * names), and the sanitizer's own counters, kept here and written
     * back at each sweep and at the end. */
    PyObject *sanitizer, *deep_check, *fail;
    PyObject *stage_fns[ST_RETRY + 1];
    long long events_seen, deep_interval, in_flight_cap;
    double last_time;
    /* The per-run choices: the start stage and its tag (stage_begin, or
     * stage_dispatch on a faulty run), whether a served request has a
     * hook and a fetch is watched (a tracer or faults), and whether a
     * batch's next request takes a turn first (rehandoff or faults). */
    int (*start)(struct Core *, int);
    int start_tag, watched, reroute;
} Core;

static PyObject *s_dispatches, *s_completions, *s_min_load, *s_min_cursor, *s_flush;

/* -- events: native events of the compiled engine, on its heap
 * (Engine.push) or staged for the current instant (Engine.post(0.0)). ---- */

static inline int
heap_push(Core *s, double time, int stage, int conn)
{
    return engine_push_native(s->eng, time, stage, conn);
}

static inline int
nowq_push(Core *s, int stage, int conn)
{
    return engine_stage_native(s->eng, stage, conn);
}

/* engine.post(delay, stage, conn), reached only when now + delay is not
 * after now: staged for this instant, or refused. */
static int
post_now(Core *s, double delay, int stage, int conn)
{
    if (!(delay >= 0)) {
        PyObject *shown = PyFloat_FromDouble(delay);
        if (shown != NULL) {
            PyErr_Format(SimulationError, "cannot schedule into the past or at NaN (delay=%R)",
                         shown);
            Py_DECREF(shown);
        }
        return -1;
    }
    return nowq_push(s, stage, conn);
}

/* The stages' "when = now + d; push if when > now, else post". */
static inline int
schedule(Core *s, double duration, int stage, int conn)
{
    double when = s->now + duration;
    if (when > s->now)
        return heap_push(s, when, stage, conn);
    return post_now(s, duration, stage, conn);
}

/* -- single-server resources (Resource._enqueue / _finish, inlined) ------ */

static int
res_enqueue(Core *s, Res *r, double duration, int stage, int conn)
{
    if (r->busy) {
        if (r->len == r->cap) {
            Py_ssize_t cap = r->cap ? 2 * r->cap : 16;
            Job *grown = PyMem_Malloc((size_t)cap * sizeof(Job));
            if (grown == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            for (Py_ssize_t k = 0; k < r->len; k++)
                grown[k] = r->jobs[(r->head + k) % r->cap];
            PyMem_Free(r->jobs);
            r->jobs = grown;
            r->head = 0;
            r->cap = cap;
        }
        Job job = {duration, stage, conn};
        r->jobs[(r->head + r->len++) % r->cap] = job;
        return 0;
    }
    r->last_change = s->now;
    r->busy = 1;
    return schedule(s, duration, stage, conn);
}

/* The freed server promotes its next waiter before the finishing
 * request's own logic runs. */
static inline int
res_finish(Core *s, Res *r)
{
    double now = s->now;
    r->jobs_served += 1;
    r->busy_integral += now - r->last_change;
    r->last_change = now;
    if (r->len) {
        Job job = r->jobs[r->head];
        r->head = (r->head + 1) % r->cap;
        r->len--;
        return schedule(s, job.duration, job.stage, job.conn);
    }
    r->busy = 0;
    return 0;
}

/* -- Python state read and written in place ------------------------------ */

static inline int
list_ll(PyObject *list, Py_ssize_t i, long long *out)
{
    *out = PyLong_AsLongLong(PyList_GET_ITEM(list, i));
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static inline int
list_set_ll(PyObject *list, Py_ssize_t i, long long value)
{
    PyObject *obj = PyLong_FromLongLong(value);
    if (obj == NULL)
        return -1;
    PyList_SetItem(list, i, obj);
    return 0;
}

static inline int
list_set_double(PyObject *list, Py_ssize_t i, double value)
{
    PyObject *obj = PyFloat_FromDouble(value);
    if (obj == NULL)
        return -1;
    PyList_SetItem(list, i, obj);
    return 0;
}

static inline int
list_double(PyObject *list, Py_ssize_t i, double *out)
{
    *out = PyFloat_AsDouble(PyList_GET_ITEM(list, i));
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
policy_ll(Core *s, PyObject *key, long long *out)
{
    PyObject *value = PyDict_GetItemWithError(s->policy_dict, key);
    if (value == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_AttributeError, key);
        return -1;
    }
    *out = PyLong_AsLongLong(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
policy_set_ll(Core *s, PyObject *key, long long value)
{
    PyObject *obj = PyLong_FromLongLong(value);
    if (obj == NULL)
        return -1;
    int rc = PyDict_SetItem(s->policy_dict, key, obj);
    Py_DECREF(obj);
    return rc;
}

static int
policy_add(Core *s, PyObject *key)
{
    long long value;
    if (policy_ll(s, key, &value) < 0)
        return -1;
    return policy_set_ll(s, key, value + 1);
}

static int
call_node_method(Core *s, const char *name, int node)
{
    PyObject *result = PyObject_CallMethod(s->policy, name, "i", node);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static int
observe(Core *s, int node)
{
    PyObject *result = PyObject_CallFunction(s->observe, "id", node, s->now);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static inline int
target_at(Core *s, Py_ssize_t i, Py_ssize_t *out)
{
    const char *p = (const char *)s->targets.buf + i * s->tstride;
    long long t;
    switch (s->tkind) {
    case 'B': t = *(const uint8_t *)p; break;
    case 'H': t = *(const uint16_t *)p; break;
    case 'I': t = *(const uint32_t *)p; break;
    case 'b': t = *(const int8_t *)p; break;
    case 'h': t = *(const int16_t *)p; break;
    case 'i': t = *(const int32_t *)p; break;
    default: t = *(const int64_t *)p; break;
    }
    if (t < 0 || t >= s->num_targets) {
        PyErr_Format(PyExc_IndexError, "trace token %lld outside the catalog", t);
        return -1;
    }
    *out = (Py_ssize_t)t;
    return 0;
}

/* fe.choose(target, size, now): the policy's decision. */
static int
choose(Core *s, Py_ssize_t target, int *node)
{
    PyObject *args[3];
    args[0] = PyLong_FromSsize_t(target);
    args[1] = PyList_GET_ITEM(s->size_list, target);
    args[2] = PyFloat_FromDouble(s->now);
    PyObject *result = NULL;
    if (args[0] != NULL && args[2] != NULL)
        result = PyObject_Vectorcall(s->choose, args, 3, NULL);
    Py_XDECREF(args[0]);
    Py_XDECREF(args[2]);
    if (result == NULL)
        return -1;
    long value = PyLong_AsLong(result);
    Py_DECREF(result);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (value < 0 || value >= s->num_nodes) {
        PyErr_Format(PyExc_IndexError, "policy chose node %ld of %d", value, s->num_nodes);
        return -1;
    }
    *node = (int)value;
    return 0;
}

/* -- connections ---------------------------------------------------------- */

static int
new_conn(Core *s)
{
    if (s->npool)
        return s->pool[--s->npool];
    if (s->nconns == s->conn_cap) {
        int cap = s->conn_cap ? 2 * s->conn_cap : 256;
        Conn *grown = PyMem_Realloc(s->conns, (size_t)cap * sizeof(Conn));
        int *pool = PyMem_Realloc(s->pool, (size_t)cap * sizeof(int));
        if (grown != NULL)
            s->conns = grown;
        if (pool != NULL)
            s->pool = pool;
        if (grown == NULL || pool == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        if (s->rows) {
            Span *spans = PyMem_Realloc(s->spans, (size_t)cap * sizeof(Span));
            long long *loads = PyMem_Realloc(
                s->span_loads, (size_t)cap * (size_t)s->num_nodes * sizeof(long long));
            if (spans != NULL)
                s->spans = spans;
            if (loads != NULL)
                s->span_loads = loads;
            if (spans == NULL || loads == NULL) {
                PyErr_NoMemory();
                return -1;
            }
        }
        if (s->faults != NULL) {
            Tries *tries = PyMem_Realloc(s->tries, (size_t)cap * sizeof(Tries));
            if (tries == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            s->tries = tries;
        }
        s->conn_cap = cap;
    }
    Conn *c = &s->conns[s->nconns];
    memset(c, 0, sizeof(Conn));
    c->read_next = c->wait_head = c->wait_tail = c->wait_next = -1;
    return s->nconns++;
}

static inline void
set_plan(Conn *c, int kind, PyObject *pairs, Py_ssize_t len)
{
    PyObject *old = c->pairs;
    c->plan_kind = kind;
    c->pairs = pairs;
    c->plan_len = len;
    c->plan_i = 0;
    Py_XDECREF(old);
}

/* -- span rows (a traced run) ------------------------------------------- */

/* The request starts: draw its span number and snapshot the policy's
 * loads, its dispatch context (SimTracer.begin). */
static int
open_span(Core *s, int ci)
{
    Span *sp = &s->spans[ci];
    sp->req = s->next_req++;
    memset(sp->ph, 0, sizeof sp->ph);
    sp->mask = 0;
    long long *load = s->span_loads + (size_t)ci * (size_t)s->num_nodes;
    for (int i = 0; i < s->num_nodes; i++) {
        if (list_ll(s->p_loads, i, &load[i]) < 0)
            return -1;
    }
    return 0;
}

/* A data service ended, before stage_advance books it: a disk read adds
 * it to ``disk`` or ``cpu``, alternately; any other path times its
 * services as one ``cpu`` delta, at the last. */
static void
time_service(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    Span *sp = &s->spans[ci];
    int last = c->plan_i >= c->plan_len;
    if (sp->outcome == OUT_MISS) {
        sp->ph[sp->on_disk ? PH_DISK : PH_CPU] += s->now - sp->mark;
        sp->on_disk = !sp->on_disk;
        sp->mark = s->now;
        if (last)
            sp->mask |= 1 << PH_DISK | 1 << PH_CPU;
    }
    else if (last) {
        sp->ph[PH_CPU] = s->now - sp->mark;
        sp->mask |= 1 << PH_CPU;
        sp->mark = s->now;
    }
}

/* The tracer's flush of the rows written so far. */
static int
rows_flush(Core *s)
{
    if (s->rfill == 0)
        return 0;
    PyObject *fill = PyLong_FromSsize_t(s->rfill);
    if (fill == NULL)
        return -1;
    int rc = PyObject_SetAttrString(s->tracer, "fill", fill);
    Py_DECREF(fill);
    if (rc < 0)
        return -1;
    s->rfill = 0;
    PyObject *result = PyObject_CallMethodNoArgs(s->tracer, s_flush);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* A sample is due: the rows so far go first, then SimTracer.sample with
 * the books only the core holds; it says when the next one is due. */
static int
take_sample(Core *s)
{
    if (rows_flush(s) < 0)
        return -1;
    long long hits = 0, misses = 0, dynamic = 0;
    PyObject *cpu_queue = PyList_New(s->num_nodes);
    PyObject *disk_queue = PyList_New(s->num_nodes);
    int rc = -1;
    if (cpu_queue == NULL || disk_queue == NULL)
        goto done;
    for (int i = 0; i < s->num_nodes; i++) {
        Node *node = &s->nodes[i];
        hits += node->cache_hits;
        misses += node->cache_misses;
        dynamic += node->dynamic_requests;
        if (list_set_ll(cpu_queue, i, s->res[2 * i].len) < 0
            || list_set_ll(disk_queue, i, s->res[2 * i + 1].len) < 0)
            goto done;
    }
    PyObject *next = PyObject_CallMethod(s->tracer, "sample", "dLLLLLOO", s->now, hits, misses,
                                         dynamic, s->completed, s->in_flight, cpu_queue,
                                         disk_queue);
    if (next == NULL)
        goto done;
    s->next_sample = PyFloat_AsDouble(next);
    Py_DECREF(next);
    if (!(s->next_sample == -1.0 && PyErr_Occurred()))
        rc = 0;
done:
    Py_XDECREF(cpu_queue);
    Py_XDECREF(disk_queue);
    return rc;
}

/* A row was written: a full chunk is flushed and a due sample taken
 * (SimTracer.row). */
static int
row_written(Core *s)
{
    s->rfill += 1;
    if (s->rfill == s->rcap && rows_flush(s) < 0)
        return -1;
    if (s->now >= s->next_sample)
        return take_sample(s);
    return 0;
}

/* A request abandoned after its retries, as the next row (SimTracer
 * .lost): its whole life is one ``retry`` phase, and it has no
 * dispatch-time loads. */
static int
lost_row(Core *s, Py_ssize_t target, Py_ssize_t size, int node, double t_first)
{
    Py_ssize_t k = s->rfill;
    long long *ints = s->rint + k * ROW_INTS;
    ints[R_REQ] = s->next_req++;
    ints[R_TARGET] = target;
    ints[R_SIZE] = size;
    ints[R_NODE] = node;
    ints[R_OUTCOME] = OUT_LOST;
    ints[R_MASK] = 1 << PH_RETRY;
    double *floats = s->rflt + k * ROW_FLOATS;
    floats[R_ARRIVAL] = t_first;
    floats[R_COMPLETE] = s->now;
    memset(floats + R_PHASES, 0, NUM_PHASES * sizeof(double));
    floats[R_PHASES + PH_RETRY] = s->now - t_first;
    return row_written(s);
}

/* The served request's span, as the next row of the tracer's chunk
 * (fastpath.py's _write_row). */
static int
write_row(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    Span *sp = &s->spans[ci];
    Py_ssize_t k = s->rfill;
    long long *ints = s->rint + k * ROW_INTS;
    ints[R_REQ] = sp->req;
    ints[R_TARGET] = c->target;
    ints[R_SIZE] = c->size;
    ints[R_NODE] = c->node;
    ints[R_OUTCOME] = sp->outcome;
    ints[R_MASK] = sp->mask;
    double *floats = s->rflt + k * ROW_FLOATS;
    floats[R_ARRIVAL] = c->start;
    floats[R_COMPLETE] = s->now;
    memcpy(floats + R_PHASES, sp->ph, sizeof sp->ph);
    memcpy(s->rload + k * s->num_nodes, s->span_loads + (size_t)ci * (size_t)s->num_nodes,
           (size_t)s->num_nodes * sizeof(long long));
    return row_written(s);
}

/* -- admission, and the books of a served request ------------------------ */

/* A request's delay on the front-end's books: the total, and the list
 * when delays are collected. */
static int
book_delay(Core *s, double delay)
{
    s->total_delay += delay;
    if (!s->collect_delays)
        return 0;
    PyObject *obj = PyFloat_FromDouble(delay);
    if (obj == NULL)
        return -1;
    int rc = PyList_Append(s->delays, obj);
    Py_DECREF(obj);
    return rc;
}

/* FaultyConnection._record_served, a faulty run's served hook: the
 * request a connection started with books its delay from the
 * connection's first start event, the request is counted, and the
 * goodput series, if the schedule keeps one, records it (and counts it
 * too). */
static int
served_hook(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    Tries *f = &s->tries[ci];
    if (c->index == f->first)
        c->start = f->t_first;
    s->served += 1;
    if (s->record_served == NULL)
        return 0;
    PyObject *result = PyObject_CallFunction(s->record_served, "ddO", s->now, s->now - c->start,
                                             f->missed ? Py_True : Py_False);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* The delays a served request books on the front-end (FrontEnd
 * ._account_request, inlined), after its served hook (a span's row,
 * then the goodput record); returns whether the connection's node is
 * still the one it was dispatched to. */
static int
account(Core *s, int ci, int *live)
{
    Conn *c = &s->conns[ci];
    Node *node = &s->nodes[c->node];
    node->requests_served += 1;
    node->bytes_served += c->size;
    if (s->watched) {
        if (s->rows && write_row(s, ci) < 0)
            return -1;
        if (s->faults != NULL && served_hook(s, ci) < 0)
            return -1;
        c = &s->conns[ci];
    }
    double delay = s->now - c->start;
    if (book_delay(s, delay) < 0)
        return -1;
    long long epoch;
    if (list_ll(s->epoch, c->node, &epoch) < 0)
        return -1;
    *live = epoch == c->epoch;
    if (*live) {
        s->pn_delay[c->node] += delay;
        s->pn_completions[c->node] += 1;
    }
    s->completed += 1;
    return 0;
}

/* Policy.on_dispatch and LoadTracker.observe for a +1 (inlined). */
static int
dispatch_load(Core *s, int node)
{
    PyObject *alive = PyList_GET_ITEM(s->p_alive, node);
    int is_alive = PyObject_IsTrue(alive);
    if (is_alive < 0)
        return -1;
    if (!is_alive && call_node_method(s, "on_dispatch", node) < 0)
        return -1;
    long long load;
    if (list_ll(s->p_loads, node, &load) < 0)
        return -1;
    load += 1;
    if (list_set_ll(s->p_loads, node, load) < 0)
        return -1;
    if (policy_add(s, s_dispatches) < 0)
        return -1;
    if ((double)load >= s->t_threshold) {
        int under = PyObject_IsTrue(PyList_GET_ITEM(s->t_is_under, node));
        if (under < 0)
            return -1;
        if (under) {
            double spent, since;
            if (list_double(s->t_under_time, node, &spent) < 0
                || list_double(s->t_under_since, node, &since) < 0
                || list_set_double(s->t_under_time, node, spent + (s->now - since)) < 0)
                return -1;
            Py_INCREF(Py_False);
            PyList_SetItem(s->t_is_under, node, Py_False);
        }
    }
    s->connections += 1;
    return 0;
}

/* Hand connection ``ci`` the trace requests from ``first``: the policy
 * decision and the books of one admission. */
static int
admit_one(Core *s, int ci, Py_ssize_t first, Py_ssize_t end)
{
    Py_ssize_t target;
    int node;
    if (target_at(s, first, &target) < 0 || choose(s, target, &node) < 0)
        return -1;
    if (dispatch_load(s, node) < 0)
        return -1;
    Conn *c = &s->conns[ci];
    long long epoch;
    if (list_ll(s->epoch, node, &epoch) < 0)
        return -1;
    c->epoch = epoch;
    c->node = node;
    c->target = target;
    c->size = (Py_ssize_t)PyLong_AsSsize_t(PyList_GET_ITEM(s->size_list, target));
    c->index = first;
    c->last = end - 1;
    return 0;
}

/* FastConnection's in-place start: the start event would be the next
 * one dispatched anyway (Engine.runs_next), so it runs here, counted as
 * the dispatch it replaces. */
static inline int
start_in_place(Core *s)
{
    if (!engine_runs_next(s->eng))
        return 0;
    s->eng->events_dispatched += 1;
    return 1;
}

static int sanitize(Core *s, double when, PyObject *callback);

/* The start stage, run in place, and on a sanitized run checked where
 * the run loop would have checked the event it replaces (FrontEnd.admit's
 * ``hook(now, begin)``). */
static int
start_here(Core *s, int ci)
{
    if (s->start(s, ci) < 0)
        return -1;
    return s->sanitizer != NULL ? sanitize(s, s->now, s->stage_fns[s->start_tag]) : 0;
}

/* FrontEnd.admit: admit while slots and trace requests remain. */
static int
admit(Core *s)
{
    while (s->in_flight < s->max_in_flight && s->next < s->n) {
        Py_ssize_t first = s->next;
        Py_ssize_t end = first + s->rpc;
        if (end > s->n)
            end = s->n;
        s->next = end;
        s->in_flight += 1;
        int ci = new_conn(s);
        if (ci < 0 || admit_one(s, ci, first, end) < 0)
            return -1;
        /* Not a traced one (FrontEnd.inplace): it snapshots the loads,
         * which the later admissions of this loop still change. */
        if (!s->rows && start_in_place(s)) {
            if (start_here(s, ci) < 0)
                return -1;
        }
        else if (nowq_push(s, s->start_tag, ci) < 0)
            return -1;
    }
    return 0;
}

/* -- the stages ----------------------------------------------------------- */

static int
stage_begin(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    Node *node = &s->nodes[c->node];
    c->start = s->now;
    if (s->rows && open_span(s, ci) < 0)
        return -1;
    return res_enqueue(s, &s->res[2 * c->node], node->conn_time, ST_DECIDE, ci);
}

static inline int
enqueue_data(Core *s, int ci, int res, double duration)
{
    s->conns[ci].res = res;
    return res_enqueue(s, &s->res[res], duration, ST_ADVANCE, ci);
}

static int
start_chunked_read(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    Node *node = &s->nodes[c->node];
    node->disk_reads += 1;
    PyObject *pairs = PyObject_CallMethod(node->disk_times, "chunk_plan", "nn", c->target, c->size);
    if (pairs == NULL)
        return -1;
    if (!PyTuple_Check(pairs) || PyTuple_GET_SIZE(pairs) < 1) {
        Py_DECREF(pairs);
        PyErr_SetString(PyExc_TypeError, "chunk_plan must return a non-empty tuple");
        return -1;
    }
    set_plan(c, PLAN_CHUNKED, pairs, 2 * PyTuple_GET_SIZE(pairs) - 1);
    c->plan_cpu = node->per_unit;
    double disk_time = PyFloat_AsDouble(PyTuple_GET_ITEM(PyTuple_GET_ITEM(pairs, 0), 0));
    if (disk_time == -1.0 && PyErr_Occurred())
        return -1;
    return enqueue_data(s, ci, 2 * c->node + 1, disk_time);
}

static int
start_disk_read(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    Node *node = &s->nodes[c->node];
    /* Register the read as in flight, with no waiters yet. */
    c->read_next = s->pending[c->target];
    c->wait_head = c->wait_tail = -1;
    s->pending[c->target] = ci;
    c->reading = 1;
    if (c->size > node->chunk_bytes)
        return start_chunked_read(s, ci);
    node->disk_reads += 1;
    set_plan(c, PLAN_TRANSMIT, NULL, 1);
    c->plan_cpu = (double)s->units[c->target] * node->per_unit;
    return enqueue_data(s, ci, 2 * c->node + 1, node->single[c->target]);
}

/* The read of ``target`` registered on ``node``, or -1. */
static inline int
pending_read(Core *s, int node, Py_ssize_t target)
{
    int r = s->pending[target];
    while (r >= 0 && s->conns[r].node != node)
        r = s->conns[r].read_next;
    return r;
}

static int
fetch(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    Node *node = &s->nodes[c->node];
    Py_ssize_t target = c->target;
    if (s->dyn != NULL && s->dyn[target] > 0.0) {
        node->dynamic_requests += 1;
        set_plan(c, PLAN_EMPTY, NULL, 0);
        return enqueue_data(s, ci, 2 * c->node,
                            s->dyn[target] / node->cpu_speed
                                + (double)s->units[target] * node->per_unit);
    }
    int reader = pending_read(s, c->node, target);
    if (reader >= 0) {
        node->cache_misses += 1;
        if (node->coalesce) {
            node->coalesced_reads += 1;
            Conn *r = &s->conns[reader];
            c->wait_next = -1;
            if (r->wait_tail >= 0)
                s->conns[r->wait_tail].wait_next = ci;
            else
                r->wait_head = ci;
            r->wait_tail = ci;
            return 0;
        }
        return start_chunked_read(s, ci);
    }
    PyObject *args[2];
    args[0] = PyLong_FromSsize_t(target);
    if (args[0] == NULL)
        return -1;
    args[1] = PyList_GET_ITEM(s->size_list, target);
    PyObject *hit = PyObject_Vectorcall(node->access, args, 2, NULL);
    Py_DECREF(args[0]);
    if (hit == NULL)
        return -1;
    int is_hit = PyObject_IsTrue(hit);
    Py_DECREF(hit);
    if (is_hit < 0)
        return -1;
    if (is_hit) {
        node->cache_hits += 1;
        set_plan(c, PLAN_EMPTY, NULL, 0);
        return enqueue_data(s, ci, 2 * c->node, (double)s->units[target] * node->per_unit);
    }
    node->cache_misses += 1;
    return start_disk_read(s, ci);
}

/* fetch, watched: its outcome read off the node's counters around it.
 * Every decision bumps cache_hits, cache_misses or dynamic_requests, and
 * the coalescing counter tells the rest apart.  A traced request's span
 * takes the outcome (fastpath.py's _traced_fetch), a faulty run's
 * connection whether the request missed (FaultyConnection._fetch: every
 * miss and every coalesced read counts one cache miss). */
static int
watched_fetch(Core *s, int ci)
{
    Node *node = &s->nodes[s->conns[ci].node];
    long long hits = node->cache_hits, misses = node->cache_misses;
    long long coalesced = node->coalesced_reads;
    if (fetch(s, ci) < 0)
        return -1;
    if (s->faults != NULL)
        s->tries[ci].missed = node->cache_misses != misses;
    if (!s->rows)
        return 0;
    Span *sp = &s->spans[ci];
    if (node->cache_hits != hits)
        sp->outcome = OUT_HIT;
    else if (node->cache_misses == misses)
        sp->outcome = OUT_DYNAMIC;
    else if (node->coalesced_reads != coalesced)
        sp->outcome = OUT_COALESCED;
    else {
        sp->outcome = OUT_MISS;
        sp->on_disk = 1;
    }
    return 0;
}

static int
stage_decide(Core *s, int ci)
{
    if (res_finish(s, &s->res[2 * s->conns[ci].node]) < 0)
        return -1;
    if (s->watched) {
        if (s->rows) {
            Span *sp = &s->spans[ci];
            sp->ph[PH_ESTABLISH] = s->now - s->conns[ci].start;
            sp->mask = 1 << PH_ESTABLISH;
            sp->mark = s->now;
        }
        return watched_fetch(s, ci);
    }
    return fetch(s, ci);
}

static int
stage_coalesced(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    Node *node = &s->nodes[c->node];
    if (s->rows) {
        Span *sp = &s->spans[ci];
        sp->ph[PH_QUEUE] = s->now - sp->mark;
        sp->mask |= 1 << PH_QUEUE;
        sp->mark = s->now;
    }
    set_plan(c, PLAN_EMPTY, NULL, 0);
    return enqueue_data(s, ci, 2 * c->node, (double)s->units[c->target] * node->per_unit);
}

/* FrontEnd._detach: release a connection's load at ``node``, unless the
 * node failed since the dispatch (then the connection is an orphan). */
static int
detach(Core *s, int node, long long epoch)
{
    long long current;
    if (list_ll(s->epoch, node, &current) < 0)
        return -1;
    if (current != epoch) {
        s->orphaned += 1;
        return 0;
    }
    if (call_node_method(s, "on_complete", node) < 0)
        return -1;
    return observe(s, node);
}

/* FrontEnd._attach. */
static int
attach(Core *s, int node)
{
    if (call_node_method(s, "on_dispatch", node) < 0)
        return -1;
    return observe(s, node);
}

/* _rehandoff: re-run the policy; move the connection's load when it
 * names another node, or when this one failed meanwhile. */
static int
rehandoff(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    int moved_to;
    if (choose(s, c->target, &moved_to) < 0)
        return -1;
    int node = c->node;
    long long epoch;
    if (list_ll(s->epoch, node, &epoch) < 0)
        return -1;
    if (moved_to == node && epoch == c->epoch)
        return 0;
    if (detach(s, node, c->epoch) < 0 || attach(s, moved_to) < 0)
        return -1;
    s->rehandoffs += 1;
    c->node = moved_to;
    if (list_ll(s->epoch, moved_to, &epoch) < 0)
        return -1;
    c->epoch = epoch;
    return 0;
}

/* Whether the fault runtime has ``node`` dark (crashed, detected or
 * not): 1 or 0, or -1 with an exception set. */
static inline int
node_dark(Core *s, int node)
{
    return PyObject_IsTrue(PyList_GET_ITEM(s->dark, node));
}

/* FaultyConnection._doomed: the chosen node is dark, and nothing answers
 * until the client's timeout fires. */
static inline int
doomed(Core *s, int ci)
{
    return schedule(s, s->timeout, ST_TIMED_OUT, ci);
}

/* The turn a batch's next request takes before it starts: _rehandoff,
 * and on a faulty run FaultyConnection._continue's dark-node checks
 * around it -- a rehandoff connection whose node the front-end has
 * already failed moves first; only a crash not yet detected swallows
 * the request.  1: the request was doomed. */
static int
next_turn(Core *s, int ci)
{
    if (s->faults != NULL) {
        int node = s->conns[ci].node;
        int dark = node_dark(s, node);
        if (dark < 0)
            return -1;
        if (dark) {
            int alive = s->rehandoff ? PyObject_IsTrue(PyList_GET_ITEM(s->p_alive, node)) : 1;
            if (alive < 0)
                return -1;
            if (alive)
                return doomed(s, ci) < 0 ? -1 : 1;
        }
    }
    if (!s->rehandoff)
        return 0;
    if (rehandoff(s, ci) < 0)
        return -1;
    if (s->faults == NULL)
        return 0;
    int dark = node_dark(s, s->conns[ci].node);
    if (dark <= 0)
        return dark;
    /* Rehandoff landed on a dark node: the attempt times out there like
     * any doomed dispatch. */
    return doomed(s, ci) < 0 ? -1 : 1;
}

static int
stage_advance(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    if (s->rows)
        time_service(s, ci);
    if (res_finish(s, &s->res[c->res]) < 0)
        return -1;
    c = &s->conns[ci];
    Node *node = &s->nodes[c->node];
    if (c->plan_i < c->plan_len) {
        Py_ssize_t i = c->plan_i++;
        if (c->plan_kind == PLAN_TRANSMIT)
            return enqueue_data(s, ci, 2 * c->node, c->plan_cpu);
        /* Chunked: CPU for chunk i/2 on even steps, disk for chunk
         * (i+1)/2 on odd ones. */
        PyObject *pair = PyTuple_GET_ITEM(c->pairs, (i + 1) / 2);
        if (i & 1) {
            double disk_time = PyFloat_AsDouble(PyTuple_GET_ITEM(pair, 0));
            if (disk_time == -1.0 && PyErr_Occurred())
                return -1;
            return enqueue_data(s, ci, 2 * c->node + 1, disk_time);
        }
        long long units = PyLong_AsLongLong(PyTuple_GET_ITEM(pair, 1));
        if (units == -1 && PyErr_Occurred())
            return -1;
        return enqueue_data(s, ci, 2 * c->node, (double)units * c->plan_cpu);
    }
    if (c->reading) {
        /* Deregister after the last chunk, before teardown is enqueued,
         * and wake the waiters in order. */
        c->reading = 0;
        int *link = &s->pending[c->target];
        while (*link != ci)
            link = &s->conns[*link].read_next;
        *link = c->read_next;
        c->read_next = -1;
        for (int w = c->wait_head; w >= 0; w = s->conns[w].wait_next) {
            if (nowq_push(s, ST_COALESCED, w) < 0)
                return -1;
        }
        c->wait_head = c->wait_tail = -1;
    }
    if (c->index == c->last)
        return res_enqueue(s, &s->res[2 * c->node], node->teardown_time, ST_COMPLETE, ci);
    int live;
    if (account(s, ci, &live) < 0)
        return -1;
    c = &s->conns[ci];
    c->index += 1;
    Py_ssize_t target;
    if (target_at(s, c->index, &target) < 0)
        return -1;
    c->target = target;
    c->size = PyLong_AsSsize_t(PyList_GET_ITEM(s->size_list, target));
    if (s->reroute) {
        int turn = next_turn(s, ci);
        if (turn != 0)
            return turn < 0 ? -1 : 0;
        c = &s->conns[ci];
    }
    c->start = s->now;
    if (s->watched) {
        if (s->rows) {
            if (open_span(s, ci) < 0)
                return -1;
            s->spans[ci].mark = s->now;
        }
        return watched_fetch(s, ci);
    }
    return fetch(s, ci);
}

static int
stage_complete(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    int node = c->node;
    if (res_finish(s, &s->res[2 * node]) < 0)
        return -1;
    c = &s->conns[ci];
    if (s->rows) {
        Span *sp = &s->spans[ci];
        sp->ph[PH_TEARDOWN] = s->now - sp->mark;
        sp->mask |= 1 << PH_TEARDOWN;
    }
    int live;
    if (account(s, ci, &live) < 0)
        return -1;
    c = &s->conns[ci];
    double now = s->now;
    if (live) {
        long long load;
        if (list_ll(s->p_loads, node, &load) < 0)
            return -1;
        load -= 1;
        if (load < 0 && call_node_method(s, "on_complete", node) < 0)
            return -1;
        if (list_set_ll(s->p_loads, node, load) < 0)
            return -1;
        long long low, cursor;
        if (policy_ll(s, s_min_load, &low) < 0)
            return -1;
        if (load <= low) {
            if (load < low) {
                if (policy_set_ll(s, s_min_load, load) < 0
                    || policy_set_ll(s, s_min_cursor, node) < 0)
                    return -1;
            }
            else {
                if (policy_ll(s, s_min_cursor, &cursor) < 0)
                    return -1;
                if (node < cursor && policy_set_ll(s, s_min_cursor, node) < 0)
                    return -1;
            }
        }
        if (policy_add(s, s_completions) < 0)
            return -1;
        if ((double)load < s->t_threshold) {
            int under = PyObject_IsTrue(PyList_GET_ITEM(s->t_is_under, node));
            if (under < 0)
                return -1;
            if (!under) {
                if (list_set_double(s->t_under_since, node, now) < 0)
                    return -1;
                Py_INCREF(Py_True);
                PyList_SetItem(s->t_is_under, node, Py_True);
            }
        }
    }
    else {
        s->orphaned += 1;
    }
    /* The freed slot admits the next trace requests on this connection:
     * one out, one in, so in_flight and the pool are left alone. */
    long long in_flight = s->in_flight - 1;
    Py_ssize_t first = s->next;
    if (first < s->n && in_flight < s->max_in_flight) {
        Py_ssize_t end = first + s->rpc;
        if (end > s->n)
            end = s->n;
        s->next = end;
        if (admit_one(s, ci, first, end) < 0)
            return -1;
        if (in_flight + 1 < s->max_in_flight && end < s->n) {
            if (nowq_push(s, s->start_tag, ci) < 0)
                return -1;
            return admit(s);
        }
        if (start_in_place(s))
            return start_here(s, ci);
        return nowq_push(s, s->start_tag, ci);
    }
    s->in_flight = in_flight;
    set_plan(c, PLAN_EMPTY, NULL, 0);
    s->pool[s->npool++] = ci;
    return 0;
}

/* -- the faulty stages (FaultyConnection) --------------------------------- */

/* _dispatch, a faulty run's start event: the connection's clock starts,
 * whatever becomes of the first dispatch. */
static int
stage_dispatch(Core *s, int ci)
{
    Tries *f = &s->tries[ci];
    f->t_first = s->now;
    f->first = s->conns[ci].index;
    f->attempts = 0;
    int dark = node_dark(s, s->conns[ci].node);
    if (dark < 0)
        return -1;
    return dark ? doomed(s, ci) : stage_begin(s, ci);
}

/* _timed_out: give the dark node's slot back, then either back off for
 * another attempt or abandon what is left of the connection. */
static int
stage_timed_out(Core *s, int ci)
{
    Conn *c = &s->conns[ci];
    Tries *f = &s->tries[ci];
    if (detach(s, c->node, c->epoch) < 0)
        return -1;
    if (f->attempts >= s->max_retries) {
        double t_first = f->t_first;
        for (Py_ssize_t index = c->index; index <= c->last; index++) {
            /* FrontEnd._account_lost, then the fault runtime's record. */
            double delay = s->now - t_first;
            if (book_delay(s, delay) < 0)
                return -1;
            s->completed += 1;
            PyObject *result = PyObject_CallFunction(s->record_lost, "dd", s->now, delay);
            if (result == NULL)
                return -1;
            Py_DECREF(result);
            s->lost += 1;
            if (s->rows) {
                Py_ssize_t target;
                if (target_at(s, index, &target) < 0)
                    return -1;
                Py_ssize_t size = PyLong_AsSsize_t(PyList_GET_ITEM(s->size_list, target));
                if (lost_row(s, target, size, c->node, t_first) < 0)
                    return -1;
            }
        }
        /* The connection is over: its load was released above. */
        s->in_flight -= 1;
        set_plan(c, PLAN_EMPTY, NULL, 0);
        s->pool[s->npool++] = ci;
        return admit(s);
    }
    f->attempts += 1;
    s->retried += c->last + 1 - c->index;
    PyObject *backoff = PyObject_CallFunction(s->backoff, "L", f->attempts);
    if (backoff == NULL)
        return -1;
    double delay = PyFloat_AsDouble(backoff);
    Py_DECREF(backoff);
    if (delay == -1.0 && PyErr_Occurred())
        return -1;
    return schedule(s, delay, ST_RETRY, ci);
}

/* _retry: the back-off is over, and the front-end dispatches the request
 * afresh. */
static int
stage_retry(Core *s, int ci)
{
    int node;
    if (choose(s, s->conns[ci].target, &node) < 0 || attach(s, node) < 0)
        return -1;
    Conn *c = &s->conns[ci];
    c->node = node;
    if (list_ll(s->epoch, node, &c->epoch) < 0)
        return -1;
    int dark = node_dark(s, node);
    if (dark < 0)
        return -1;
    return dark ? doomed(s, ci) : stage_begin(s, ci);
}

/* -- writing the books back ---------------------------------------------- */

static int
set_ll(PyObject *obj, const char *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttrString(obj, name, v);
    Py_DECREF(v);
    return rc;
}

static int
set_double(PyObject *obj, const char *name, double value)
{
    PyObject *v = PyFloat_FromDouble(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttrString(obj, name, v);
    Py_DECREF(v);
    return rc;
}

/* The books a deep sweep reads, and the run's end: the front-end's, the
 * nodes', the resources' and the fault runtime's counters. */
static int
write_books(Core *s)
{
    PyObject *fe = s->fe;
    if (set_ll(fe, "_next", s->next) < 0
        || set_ll(fe, "in_flight", s->in_flight) < 0
        || set_ll(fe, "completed", s->completed) < 0
        || set_ll(fe, "connections", s->connections) < 0
        || set_ll(fe, "rehandoffs", s->rehandoffs) < 0
        || set_ll(fe, "orphaned", s->orphaned) < 0
        || set_double(fe, "total_delay_s", s->total_delay) < 0)
        return -1;
    PyObject *lists[2];
    lists[0] = PyObject_GetAttrString(fe, "per_node_completions");
    lists[1] = PyObject_GetAttrString(fe, "per_node_delay_s");
    int rc = 0;
    for (int k = 0; k < 2; k++) {
        if (lists[k] == NULL || !PyList_Check(lists[k])
            || PyList_GET_SIZE(lists[k]) != s->num_nodes)
            rc = -1;
    }
    for (int i = 0; rc == 0 && i < s->num_nodes; i++) {
        if (list_set_ll(lists[0], i, s->pn_completions[i]) < 0
            || list_set_double(lists[1], i, s->pn_delay[i]) < 0)
            rc = -1;
    }
    for (int k = 0; k < 2; k++)
        Py_XDECREF(lists[k]);
    if (rc < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "front-end per-node lists changed shape");
        return -1;
    }
    for (int i = 0; i < s->num_nodes; i++) {
        Node *node = &s->nodes[i];
        if (set_ll(node->obj, "cache_hits", node->cache_hits) < 0
            || set_ll(node->obj, "cache_misses", node->cache_misses) < 0
            || set_ll(node->obj, "disk_reads", node->disk_reads) < 0
            || set_ll(node->obj, "coalesced_reads", node->coalesced_reads) < 0
            || set_ll(node->obj, "requests_served", node->requests_served) < 0
            || set_ll(node->obj, "bytes_served", node->bytes_served) < 0
            || set_ll(node->obj, "dynamic_requests", node->dynamic_requests) < 0)
            return -1;
        for (int k = 0; k < 2; k++) {
            Res *r = &s->res[2 * i + k];
            if (set_ll(r->obj, "jobs_served", r->jobs_served) < 0
                || set_double(r->obj, "_busy_integral", r->busy_integral) < 0
                || set_double(r->obj, "_last_change", r->last_change) < 0
                || set_ll(r->obj, "_busy", r->busy) < 0)
                return -1;
        }
    }
    /* Served requests, when only counted here (record_served counts
     * them itself, as record_lost counts the lost ones). */
    if (s->faults != NULL
        && (set_ll(s->faults, "retried_requests", s->retried) < 0
            || (s->record_served == NULL
                && set_ll(s->faults, "served_requests", s->served) < 0)))
        return -1;
    return 0;
}

/* The sanitizer's own counters, as its after_event would have left them. */
static int
write_watch(Core *s)
{
    if (set_ll(s->sanitizer, "events_seen", s->events_seen) < 0
        || set_double(s->sanitizer, "_last_time", s->last_time) < 0
        || set_ll(s->sanitizer, "_in_flight_cap", s->in_flight_cap) < 0)
        return -1;
    return 0;
}

static int
write_back(Core *s)
{
    if (write_books(s) < 0 || (s->sanitizer != NULL && write_watch(s) < 0))
        return -1;
    /* The rows not flushed yet are the tracer's to flush. */
    if (s->rows
        && (set_ll(s->tracer, "fill", s->rfill) < 0 || set_ll(s->tracer, "seq", s->next_req) < 0))
        return -1;
    return 0;
}

/* -- the invariant sanitizer (a sanitized run) ------------------------------ */

/* InvariantSanitizer._fail: the SanitizerError naming the event, with the
 * reference's text; -1 with it set.  ``reason`` is stolen. */
static int
violation(Core *s, double when, PyObject *callback, PyObject *reason)
{
    PyObject *at = reason != NULL ? PyFloat_FromDouble(when) : NULL;
    if (at != NULL && write_watch(s) == 0) {
        PyObject *result = PyObject_CallFunctionObjArgs(s->fail, at, callback, reason, NULL);
        Py_XDECREF(result);
        if (result != NULL)
            PyErr_SetString(PyExc_RuntimeError, "InvariantSanitizer._fail returned");
    }
    Py_XDECREF(at);
    Py_XDECREF(reason);
    return -1;
}

/* Every deep_interval events: the books go back into the Python objects
 * the sweep reads, and InvariantSanitizer._deep_check reads them. */
static int
sweep(Core *s, double when, PyObject *callback)
{
    if (write_books(s) < 0 || write_watch(s) < 0)
        return -1;
    PyObject *at = PyFloat_FromDouble(when);
    if (at == NULL)
        return -1;
    PyObject *result = PyObject_CallFunctionObjArgs(s->deep_check, at, callback, NULL);
    Py_DECREF(at);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* InvariantSanitizer.after_event over the core's books: the event that
 * ran at ``when`` (the reference's ``callback``) is counted, the clock
 * and the front-end's and the fault runtime's laws are checked, and a
 * deep sweep is made every deep_interval events. */
static int
sanitize(Core *s, double when, PyObject *callback)
{
    long long seen = ++s->events_seen;
    if (when + 1e-12 < s->last_time) {
        PyObject *at = PyFloat_FromDouble(when), *last = PyFloat_FromDouble(s->last_time);
        PyObject *reason = NULL;
        if (at != NULL && last != NULL)
            reason = PyUnicode_FromFormat("clock moved backwards: event at t=%R after t=%R", at,
                                          last);
        Py_XDECREF(at);
        Py_XDECREF(last);
        return violation(s, when, callback, reason);
    }
    s->last_time = when;
    long long admitted = s->next, completed = s->completed, in_flight = s->in_flight;
    if (in_flight < 0)
        return violation(s, when, callback,
                         PyUnicode_FromFormat("in_flight is negative (%lld)", in_flight));
    long long limit = s->max_in_flight, cap = s->in_flight_cap;
    long long allowance = cap > limit ? cap : limit;
    if (in_flight > allowance)
        return violation(s, when, callback,
                         PyUnicode_FromFormat("in_flight %lld exceeds the admission limit %lld "
                                              "(drain allowance %lld)",
                                              in_flight, limit, allowance));
    if (cap != limit && in_flight <= limit)
        s->in_flight_cap = limit;
    long long outstanding = admitted - completed;
    if (outstanding < 0)
        return violation(s, when, callback,
                         PyUnicode_FromFormat("completed %lld exceeds admitted %lld", completed,
                                              admitted));
    long long carried = in_flight * (long long)s->rpc;
    if (outstanding > carried)
        return violation(s, when, callback,
                         PyUnicode_FromFormat("request conservation broken: admitted %lld != "
                                              "completed %lld + work carried by %lld in-flight "
                                              "connection(s) (<= %lld requests)",
                                              admitted, completed, in_flight, carried));
    if (outstanding < in_flight)
        return violation(s, when, callback,
                         PyUnicode_FromFormat("request conservation broken: %lld in-flight "
                                              "connection(s) carry only %lld outstanding "
                                              "request(s) (admitted %lld, completed %lld)",
                                              in_flight, outstanding, admitted, completed));
    if (s->faults != NULL) {
        long long lost = s->lost, served = s->served, retried = s->retried;
        if (lost < 0 || served < 0 || retried < 0)
            return violation(s, when, callback,
                             PyUnicode_FromFormat("fault-runtime counters went negative (served "
                                                  "%lld, lost %lld, retried %lld)",
                                                  served, lost, retried));
        if (served + lost != completed)
            return violation(s, when, callback,
                             PyUnicode_FromFormat("lost-request conservation broken: served %lld "
                                                  "+ lost %lld != completed %lld",
                                                  served, lost, completed));
    }
    if (seen % s->deep_interval == 0)
        return sweep(s, when, callback);
    return 0;
}

/* The engine's check of a sanitized run, after each event it dispatched:
 * a native one is named by its stage's function in the reference. */
static int
check_event(PyObject *client, const Event *ev)
{
    Core *s = (Core *)client;
    PyObject *callback = ev->fn == NULL ? s->stage_fns[ev->u.native.tag] : event_callback(ev);
    return sanitize(s, ev->time, callback);
}

/* -- the Core type ---------------------------------------------------------- */

static int
get_ll(PyObject *obj, const char *name, long long *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
get_double(PyObject *obj, const char *name, double *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
get_list(PyObject *obj, const char *name, Py_ssize_t length, PyObject **out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL)
        return -1;
    if (!PyList_Check(v) || (length >= 0 && PyList_GET_SIZE(v) != length)) {
        PyErr_Format(PyExc_TypeError, "%s must be a list of %zd", name, length);
        Py_DECREF(v);
        return -1;
    }
    *out = v;
    return 0;
}

static double *
float_table(PyObject *list, Py_ssize_t length)
{
    if (!PyList_Check(list) || PyList_GET_SIZE(list) != length) {
        PyErr_SetString(PyExc_TypeError, "per-target table does not match the catalog");
        return NULL;
    }
    double *table = PyMem_Malloc((size_t)(length ? length : 1) * sizeof(double));
    if (table == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t t = 0; t < length; t++) {
        table[t] = PyFloat_AsDouble(PyList_GET_ITEM(list, t));
        if (table[t] == -1.0 && PyErr_Occurred()) {
            PyMem_Free(table);
            return NULL;
        }
    }
    return table;
}

/* The DiskTimes.single table of a node, shared by every node of one
 * cost model (a brownout's scaled model adds one). */
static const double *
single_table(Core *s, PyObject *disk_times)
{
    PyObject *single = PyObject_GetAttrString(disk_times, "single");
    if (single == NULL)
        return NULL;
    for (int k = 0; k < s->num_tables; k++) {
        if (s->tables[k].source == single) {
            Py_DECREF(single);
            return s->tables[k].table;
        }
    }
    if (s->num_tables == s->tables_cap) {
        int cap = s->tables_cap ? 2 * s->tables_cap : 4;
        Table *grown = PyMem_Realloc(s->tables, (size_t)cap * sizeof(Table));
        if (grown == NULL) {
            Py_DECREF(single);
            PyErr_NoMemory();
            return NULL;
        }
        s->tables = grown;
        s->tables_cap = cap;
    }
    double *table = float_table(single, s->num_targets);
    if (table == NULL) {
        Py_DECREF(single);
        return NULL;
    }
    Table *entry = &s->tables[s->num_tables++];
    entry->table = table;
    entry->source = single; /* the reference is kept */
    return table;
}

static int
init_resource(Res *r, PyObject *obj)
{
    Py_INCREF(obj);
    r->obj = obj;
    long long busy, capacity;
    PyObject *waiting = PyObject_GetAttrString(obj, "_waiting");
    if (waiting == NULL)
        return -1;
    Py_ssize_t queued = PyObject_Length(waiting);
    Py_DECREF(waiting);
    if (queued < 0 || get_ll(obj, "capacity", &capacity) < 0 || get_ll(obj, "_busy", &busy) < 0
        || get_ll(obj, "jobs_served", &r->jobs_served) < 0
        || get_double(obj, "_busy_integral", &r->busy_integral) < 0
        || get_double(obj, "_last_change", &r->last_change) < 0)
        return -1;
    if (capacity != 1 || queued || busy) {
        PyErr_SetString(PyExc_ValueError, "the native core starts on idle single-server resources");
        return -1;
    }
    r->busy = 0;
    return 0;
}

/* What a node's cost model fixes: the constants BackendNode.set_costs
 * folds and the disk-time table installed with them -- read when the
 * core is built and again after a brownout installs another model. */
static int
node_costs(Core *s, Node *node)
{
    PyObject *disk_times = PyObject_GetAttrString(node->obj, "disk_times");
    if (disk_times == NULL)
        return -1;
    Py_XSETREF(node->disk_times, disk_times);
    node->single = single_table(s, disk_times);
    PyObject *costs = PyObject_GetAttrString(node->obj, "costs");
    if (node->single == NULL || costs == NULL) {
        Py_XDECREF(costs);
        return -1;
    }
    int rc = get_double(costs, "cpu_speed", &node->cpu_speed);
    Py_DECREF(costs);
    if (rc < 0 || get_ll(disk_times, "chunk_bytes", &node->chunk_bytes) < 0
        || get_double(node->obj, "_conn_time", &node->conn_time) < 0
        || get_double(node->obj, "_teardown_time", &node->teardown_time) < 0
        || get_double(node->obj, "_transmit_per_unit", &node->per_unit) < 0)
        return -1;
    return 0;
}

static int
init_node(Core *s, int i, PyObject *obj)
{
    Node *node = &s->nodes[i];
    Py_INCREF(obj);
    node->obj = obj;
    PyObject *cpu = PyObject_GetAttrString(obj, "cpu");
    PyObject *disks = PyObject_GetAttrString(obj, "disks");
    PyObject *cache = PyObject_GetAttrString(obj, "cache");
    PyObject *pending = PyObject_GetAttrString(obj, "_pending");
    int rc = -1;
    if (cpu == NULL || disks == NULL || cache == NULL || pending == NULL)
        goto done;
    if (!PyList_Check(disks) || PyList_GET_SIZE(disks) != 1 || cache == Py_None
        || PyObject_Length(pending) != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "the native core serves one disk and a private cache per node");
        goto done;
    }
    if (init_resource(&s->res[2 * i], cpu) < 0
        || init_resource(&s->res[2 * i + 1], PyList_GET_ITEM(disks, 0)) < 0)
        goto done;
    node->access = PyObject_GetAttrString(cache, "access");
    if (node->access == NULL || node_costs(s, node) < 0)
        goto done;
    long long coalesce;
    if (get_ll(obj, "coalesce_reads", &coalesce) < 0
        || get_ll(obj, "cache_hits", &node->cache_hits) < 0
        || get_ll(obj, "cache_misses", &node->cache_misses) < 0
        || get_ll(obj, "disk_reads", &node->disk_reads) < 0
        || get_ll(obj, "coalesced_reads", &node->coalesced_reads) < 0
        || get_ll(obj, "requests_served", &node->requests_served) < 0
        || get_ll(obj, "bytes_served", &node->bytes_served) < 0
        || get_ll(obj, "dynamic_requests", &node->dynamic_requests) < 0)
        goto done;
    node->coalesce = coalesce != 0;
    rc = 0;
done:
    Py_XDECREF(cpu);
    Py_XDECREF(disks);
    Py_XDECREF(cache);
    Py_XDECREF(pending);
    return rc;
}

/* A buffer of one of the tracer's chunk arrays: C-contiguous, writable,
 * two-dimensional, 8-byte items of ``kind`` ('i' integer, 'd' float),
 * ``width`` columns. */
static int
chunk_buffer(PyObject *tracer, const char *name, char kind, Py_ssize_t width, Py_buffer *view)
{
    PyObject *array = PyObject_GetAttrString(tracer, name);
    if (array == NULL)
        return -1;
    int got = PyObject_GetBuffer(array, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | PyBUF_WRITABLE);
    Py_DECREF(array);
    if (got < 0)
        return -1;
    const char *format = view->format ? view->format : "B";
    if (format[0] == '<' || format[0] == '=' || format[0] == '@')
        format++;
    int ok = view->ndim == 2 && view->itemsize == 8 && view->shape[1] == width && format[1] == '\0'
             && (kind == 'd' ? format[0] == 'd' : strchr("lq", format[0]) != NULL);
    if (!ok) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "tracer.%s must be a C-contiguous (rows, %zd) array of %s",
                     name, width, kind == 'd' ? "float64" : "int64");
        return -1;
    }
    return 0;
}

/* Take over the tracer's chunk, its span numbers and its sample clock. */
static int
init_rows(Core *s, PyObject *tracer)
{
    Py_INCREF(tracer);
    s->tracer = tracer;
    s->rows = 1;
    if (chunk_buffer(tracer, "ints", 'i', ROW_INTS, &s->chunk[0]) < 0)
        return -1;
    if (chunk_buffer(tracer, "floats", 'd', ROW_FLOATS, &s->chunk[1]) < 0) {
        PyBuffer_Release(&s->chunk[0]);
        return -1;
    }
    if (chunk_buffer(tracer, "loads", 'i', s->num_nodes, &s->chunk[2]) < 0) {
        PyBuffer_Release(&s->chunk[0]);
        PyBuffer_Release(&s->chunk[1]);
        return -1;
    }
    s->have_chunk = 1;
    s->rint = s->chunk[0].buf;
    s->rflt = s->chunk[1].buf;
    s->rload = s->chunk[2].buf;
    s->rcap = s->chunk[0].shape[0];
    long long fill;
    if (s->chunk[1].shape[0] != s->rcap || s->chunk[2].shape[0] != s->rcap || s->rcap < 1) {
        PyErr_SetString(PyExc_ValueError, "the tracer's chunk arrays differ in length");
        return -1;
    }
    if (get_ll(tracer, "fill", &fill) < 0 || get_ll(tracer, "seq", &s->next_req) < 0
        || get_double(tracer, "next_sample_t", &s->next_sample) < 0)
        return -1;
    if (fill < 0 || fill >= s->rcap) {
        PyErr_SetString(PyExc_ValueError, "the tracer's chunk has no free row");
        return -1;
    }
    s->rfill = (Py_ssize_t)fill;
    return 0;
}

/* Take over a fault runtime: its dark list (read in place), its retry
 * policy, its records and the counters the core keeps. */
static int
init_faults(Core *s, PyObject *faults)
{
    s->faults = Py_NewRef(faults);
    PyObject *retry = NULL, *interval = NULL;
    int rc = -1;
    if (get_list(faults, "_dark", s->num_nodes, &s->dark) < 0
        || (retry = PyObject_GetAttrString(faults, "retry")) == NULL
        || (s->backoff = PyObject_GetAttrString(retry, "backoff_s")) == NULL
        || (s->record_lost = PyObject_GetAttrString(faults, "record_lost")) == NULL
        || (interval = PyObject_GetAttrString(faults, "interval_s")) == NULL
        || get_double(retry, "timeout_s", &s->timeout) < 0
        || get_ll(retry, "max_retries", &s->max_retries) < 0
        || get_ll(faults, "served_requests", &s->served) < 0
        || get_ll(faults, "retried_requests", &s->retried) < 0
        || get_ll(faults, "lost_requests", &s->lost) < 0)
        goto done;
    if (interval != Py_None
        && (s->record_served = PyObject_GetAttrString(faults, "record_served")) == NULL)
        goto done;
    rc = 0;
done:
    Py_XDECREF(retry);
    Py_XDECREF(interval);
    return rc;
}

/* The stage functions of the reference's connection class, by tag. */
static const char *const stage_names[ST_RETRY + 1] = {
    "_begin", "_decide", "_advance", "_complete", "_coalesced", "_dispatch", "_timed_out", "_retry",
};

/* Take over a sanitizer: its counters, the methods a sweep and a
 * violation call, and the names of the stages it may report. */
static int
init_sanitizer(Core *s, PyObject *sanitizer)
{
    s->sanitizer = Py_NewRef(sanitizer);
    PyObject *cls = PyObject_GetAttrString(s->fe, "conn_class");
    if (cls == NULL)
        return -1;
    int rc = -1;
    for (int tag = 0; tag <= ST_RETRY; tag++) {
        s->stage_fns[tag] = PyObject_GetAttrString(cls, stage_names[tag]);
        if (s->stage_fns[tag] == NULL) {
            /* A plain run's class has no faulty stages, nor events of
             * theirs. */
            if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                goto done;
            PyErr_Clear();
            s->stage_fns[tag] = Py_NewRef(Py_None);
        }
    }
    if ((s->deep_check = PyObject_GetAttrString(sanitizer, "_deep_check")) == NULL
        || (s->fail = PyObject_GetAttrString(sanitizer, "_fail")) == NULL
        || get_ll(sanitizer, "deep_interval", &s->deep_interval) < 0
        || get_ll(sanitizer, "events_seen", &s->events_seen) < 0
        || get_ll(sanitizer, "_in_flight_cap", &s->in_flight_cap) < 0
        || get_double(sanitizer, "_last_time", &s->last_time) < 0)
        goto done;
    if (s->deep_interval < 1) {
        PyErr_SetString(PyExc_ValueError, "deep_interval must be >= 1");
        goto done;
    }
    rc = 0;
done:
    Py_DECREF(cls);
    return rc;
}

static int dispatch(PyObject *client, int stage, int ci);

static int
Core_init(Core *s, PyObject *args, PyObject *kwds)
{
    PyObject *fe, *sanitizer = Py_None;
    static char *kwlist[] = {"frontend", "sanitizer", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O:Core", kwlist, &fe, &sanitizer))
        return -1;
    if (s->fe != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "a Core is built once");
        return -1;
    }
    Py_INCREF(fe);
    s->fe = fe;
    PyObject *tracker = NULL, *nodes = NULL;
    int rc = -1;
    long long value;
    PyObject *engine = PyObject_GetAttrString(fe, "engine");
    if (engine == NULL)
        return -1;
    if (!PyObject_TypeCheck(engine, &EngineType)) {
        Py_DECREF(engine);
        PyErr_SetString(PyExc_TypeError, "the native core runs on the compiled engine");
        return -1;
    }
    s->eng = (EngineObject *)engine;
    if (engine_bind(s->eng, (PyObject *)s, dispatch, sanitizer != Py_None ? check_event : NULL)
        < 0)
        return -1;
    if ((s->policy = PyObject_GetAttrString(fe, "policy")) == NULL
        || (s->choose = PyObject_GetAttrString(fe, "choose")) == NULL
        || (tracker = PyObject_GetAttrString(fe, "tracker")) == NULL
        || (s->observe = PyObject_GetAttrString(tracker, "observe")) == NULL
        || (nodes = PyObject_GetAttrString(fe, "nodes")) == NULL
        || (s->delays = PyObject_GetAttrString(fe, "delays_s")) == NULL)
        goto done;
    s->policy_dict = PyObject_GenericGetDict(s->policy, NULL);
    if (s->policy_dict == NULL)
        goto done;
    if (!PyList_Check(s->delays)) {
        PyErr_SetString(PyExc_TypeError, "delays_s must be a list");
        goto done;
    }
    Py_ssize_t num_nodes = PySequence_Length(nodes);
    if (num_nodes < 1)
        goto done;
    s->num_nodes = (int)num_nodes;
    if (get_list(fe, "p_loads", num_nodes, &s->p_loads) < 0
        || get_list(fe, "p_alive", num_nodes, &s->p_alive) < 0
        || get_list(fe, "_epoch", num_nodes, &s->epoch) < 0
        || get_list(fe, "t_under_since", num_nodes, &s->t_under_since) < 0
        || get_list(fe, "t_under_time", num_nodes, &s->t_under_time) < 0
        || get_list(fe, "t_is_under", num_nodes, &s->t_is_under) < 0
        || get_list(fe, "_size_list", -1, &s->size_list) < 0
        || get_double(fe, "t_threshold", &s->t_threshold) < 0)
        goto done;
    s->num_targets = PyList_GET_SIZE(s->size_list);
    PyObject *targets = PyObject_GetAttrString(fe, "_targets");
    if (targets == NULL)
        goto done;
    /* The buffer of the array a view shows, not of the view: the
     * collector may tp_clear a view in the same cycle as a Core that
     * was started and never finished, and a view with an export
     * refuses that. */
    PyObject *exporter = targets;
    if (PyMemoryView_Check(targets) && PyMemoryView_GET_BUFFER(targets)->obj != NULL)
        exporter = PyMemoryView_GET_BUFFER(targets)->obj;
    int got = PyObject_GetBuffer(exporter, &s->targets, PyBUF_FORMAT | PyBUF_STRIDES);
    Py_DECREF(targets);
    if (got < 0)
        goto done;
    s->have_targets = 1;
    const char *format = s->targets.format ? s->targets.format : "B";
    if (format[0] == '<' || format[0] == '=' || format[0] == '@')
        format++;
    s->tkind = format[0];
    if (s->targets.ndim != 1 || strchr("BHIbhilqLQ", s->tkind) == NULL || format[1] != '\0'
        || (s->tkind == 'l' || s->tkind == 'q' || s->tkind == 'L' || s->tkind == 'Q'
            ? s->targets.itemsize != 8
            : 0)) {
        PyErr_SetString(PyExc_TypeError, "the request stream must be a 1-d integer buffer");
        goto done;
    }
    s->tstride = s->targets.strides ? s->targets.strides[0] : s->targets.itemsize;
    if (get_ll(fe, "n", &value) < 0)
        goto done;
    s->n = (Py_ssize_t)value;
    if (s->n > s->targets.shape[0]) {
        PyErr_SetString(PyExc_ValueError, "trace length exceeds the request stream");
        goto done;
    }
    if (get_ll(fe, "_next", &value) < 0)
        goto done;
    s->next = (Py_ssize_t)value;
    if (get_ll(fe, "requests_per_connection", &value) < 0)
        goto done;
    s->rpc = (Py_ssize_t)value;
    long long flag;
    if (get_ll(fe, "in_flight", &s->in_flight) < 0
        || get_ll(fe, "max_in_flight", &s->max_in_flight) < 0
        || get_ll(fe, "rehandoff", &flag) < 0)
        goto done;
    s->rehandoff = flag != 0;
    if (get_ll(fe, "collect_delays", &flag) < 0
        || get_ll(fe, "completed", &s->completed) < 0
        || get_ll(fe, "connections", &s->connections) < 0
        || get_ll(fe, "rehandoffs", &s->rehandoffs) < 0
        || get_ll(fe, "orphaned", &s->orphaned) < 0
        || get_double(fe, "total_delay_s", &s->total_delay) < 0)
        goto done;
    s->collect_delays = flag != 0;
    if (s->in_flight != 0) {
        PyErr_SetString(PyExc_ValueError, "the native core starts with nothing in flight");
        goto done;
    }
    s->now = s->eng->now;
    size_t nn = (size_t)num_nodes;
    s->pn_completions = PyMem_Calloc(nn, sizeof(long long));
    s->pn_delay = PyMem_Calloc(nn, sizeof(double));
    s->nodes = PyMem_Calloc(nn, sizeof(Node));
    s->res = PyMem_Calloc(2 * nn, sizeof(Res));
    s->pending = PyMem_Malloc((size_t)(s->num_targets ? s->num_targets : 1) * sizeof(int));
    s->units = PyMem_Malloc((size_t)(s->num_targets ? s->num_targets : 1) * sizeof(long long));
    if (!s->pn_completions || !s->pn_delay || !s->nodes || !s->res || !s->pending || !s->units) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t t = 0; t < s->num_targets; t++)
        s->pending[t] = -1;
    PyObject *lists[2] = {NULL, NULL};
    if (get_list(fe, "per_node_completions", num_nodes, &lists[0]) == 0
        && get_list(fe, "per_node_delay_s", num_nodes, &lists[1]) == 0) {
        int bad = 0;
        for (Py_ssize_t i = 0; i < num_nodes && !bad; i++)
            bad = list_ll(lists[0], i, &s->pn_completions[i]) < 0
                  || list_double(lists[1], i, &s->pn_delay[i]) < 0;
        for (int k = 0; k < 2; k++)
            Py_XDECREF(lists[k]);
        if (bad)
            goto done;
    }
    else {
        for (int k = 0; k < 2; k++)
            Py_XDECREF(lists[k]);
        goto done;
    }
    PyObject *units = PyObject_GetAttrString(fe, "units");
    if (units == NULL)
        goto done;
    if (!PyList_Check(units) || PyList_GET_SIZE(units) != s->num_targets) {
        Py_DECREF(units);
        PyErr_SetString(PyExc_TypeError, "units must be a list over the catalog");
        goto done;
    }
    for (Py_ssize_t t = 0; t < s->num_targets; t++) {
        if (list_ll(units, t, &s->units[t]) < 0) {
            Py_DECREF(units);
            goto done;
        }
    }
    Py_DECREF(units);
    for (int i = 0; i < s->num_nodes; i++) {
        PyObject *node = PySequence_GetItem(nodes, i);
        if (node == NULL)
            goto done;
        int bad = init_node(s, i, node);
        Py_DECREF(node);
        if (bad < 0)
            goto done;
    }
    /* The cluster's one CGI cost table (or none at all). */
    PyObject *dyn = PyObject_GetAttrString(fe, "dynamic_costs");
    if (dyn == NULL)
        goto done;
    if (dyn != Py_None)
        s->dyn = float_table(dyn, s->num_targets);
    Py_DECREF(dyn);
    if (PyErr_Occurred())
        goto done;
    PyObject *tracer = PyObject_GetAttrString(fe, "tracer");
    if (tracer == NULL)
        goto done;
    int traced = tracer != Py_None ? init_rows(s, tracer) : 0;
    Py_DECREF(tracer);
    if (traced < 0)
        goto done;
    PyObject *faults = PyObject_GetAttrString(fe, "faults");
    if (faults == NULL)
        goto done;
    int faulty = faults != Py_None ? init_faults(s, faults) : 0;
    Py_DECREF(faults);
    if (faulty < 0)
        goto done;
    s->start = s->faults != NULL ? stage_dispatch : stage_begin;
    s->start_tag = s->faults != NULL ? ST_DISPATCH : ST_BEGIN;
    s->watched = s->rows || s->faults != NULL;
    s->reroute = s->rehandoff || s->faults != NULL;
    if (sanitizer != Py_None && init_sanitizer(s, sanitizer) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(tracker);
    Py_XDECREF(nodes);
    return rc;
}

static int
Core_traverse(Core *s, visitproc visit, void *arg)
{
    Py_VISIT(s->fe);
    Py_VISIT(s->eng);
    Py_VISIT(s->policy);
    Py_VISIT(s->policy_dict);
    Py_VISIT(s->choose);
    Py_VISIT(s->p_loads);
    Py_VISIT(s->p_alive);
    Py_VISIT(s->epoch);
    Py_VISIT(s->size_list);
    Py_VISIT(s->t_under_since);
    Py_VISIT(s->t_under_time);
    Py_VISIT(s->t_is_under);
    Py_VISIT(s->observe);
    Py_VISIT(s->delays);
    if (s->have_targets)
        Py_VISIT(s->targets.obj);
    for (int i = 0; s->nodes != NULL && i < s->num_nodes; i++) {
        Py_VISIT(s->nodes[i].obj);
        Py_VISIT(s->nodes[i].access);
        Py_VISIT(s->nodes[i].disk_times);
    }
    for (int i = 0; s->res != NULL && i < 2 * s->num_nodes; i++)
        Py_VISIT(s->res[i].obj);
    for (int k = 0; s->tables != NULL && k < s->num_tables; k++)
        Py_VISIT(s->tables[k].source);
    for (int k = 0; s->conns != NULL && k < s->nconns; k++)
        Py_VISIT(s->conns[k].pairs);
    Py_VISIT(s->tracer);
    Py_VISIT(s->faults);
    Py_VISIT(s->dark);
    Py_VISIT(s->backoff);
    Py_VISIT(s->record_served);
    Py_VISIT(s->record_lost);
    Py_VISIT(s->sanitizer);
    Py_VISIT(s->deep_check);
    Py_VISIT(s->fail);
    for (int tag = 0; tag <= ST_RETRY; tag++)
        Py_VISIT(s->stage_fns[tag]);
    return 0;
}

static int
Core_clear_refs(Core *s)
{
    Py_CLEAR(s->fe);
    if (s->eng != NULL)
        engine_unbind(s->eng, (PyObject *)s);
    Py_CLEAR(s->eng);
    Py_CLEAR(s->policy);
    Py_CLEAR(s->policy_dict);
    Py_CLEAR(s->choose);
    Py_CLEAR(s->p_loads);
    Py_CLEAR(s->p_alive);
    Py_CLEAR(s->epoch);
    Py_CLEAR(s->size_list);
    Py_CLEAR(s->t_under_since);
    Py_CLEAR(s->t_under_time);
    Py_CLEAR(s->t_is_under);
    Py_CLEAR(s->observe);
    Py_CLEAR(s->delays);
    if (s->have_targets) {
        PyBuffer_Release(&s->targets);
        s->have_targets = 0;
    }
    if (s->nodes != NULL) {
        for (int i = 0; i < s->num_nodes; i++) {
            Py_CLEAR(s->nodes[i].obj);
            Py_CLEAR(s->nodes[i].access);
            Py_CLEAR(s->nodes[i].disk_times);
        }
    }
    if (s->res != NULL) {
        for (int i = 0; i < 2 * s->num_nodes; i++)
            Py_CLEAR(s->res[i].obj);
    }
    for (int k = 0; s->tables != NULL && k < s->num_tables; k++)
        Py_CLEAR(s->tables[k].source);
    for (int k = 0; s->conns != NULL && k < s->nconns; k++)
        Py_CLEAR(s->conns[k].pairs);
    if (s->have_chunk) {
        for (int k = 0; k < 3; k++)
            PyBuffer_Release(&s->chunk[k]);
        s->have_chunk = 0;
    }
    Py_CLEAR(s->tracer);
    Py_CLEAR(s->faults);
    Py_CLEAR(s->dark);
    Py_CLEAR(s->backoff);
    Py_CLEAR(s->record_served);
    Py_CLEAR(s->record_lost);
    Py_CLEAR(s->sanitizer);
    Py_CLEAR(s->deep_check);
    Py_CLEAR(s->fail);
    for (int tag = 0; tag <= ST_RETRY; tag++)
        Py_CLEAR(s->stage_fns[tag]);
    return 0;
}

static void
Core_dealloc(Core *s)
{
    PyObject_GC_UnTrack(s);
    Core_clear_refs(s);
    if (s->res != NULL) {
        for (int i = 0; i < 2 * s->num_nodes; i++)
            PyMem_Free(s->res[i].jobs);
    }
    for (int k = 0; s->tables != NULL && k < s->num_tables; k++)
        PyMem_Free(s->tables[k].table);
    PyMem_Free(s->tables);
    PyMem_Free(s->pn_completions);
    PyMem_Free(s->pn_delay);
    PyMem_Free(s->nodes);
    PyMem_Free(s->res);
    PyMem_Free(s->units);
    PyMem_Free(s->dyn);
    PyMem_Free(s->pending);
    PyMem_Free(s->conns);
    PyMem_Free(s->pool);
    PyMem_Free(s->spans);
    PyMem_Free(s->span_loads);
    PyMem_Free(s->tries);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static int
check_ready(Core *s)
{
    if (s->fe == NULL || s->ran) {
        PyErr_SetString(PyExc_RuntimeError, "this Core is not built, or it already ran");
        return -1;
    }
    return 0;
}

static PyObject *
Core_admit(Core *s, PyObject *Py_UNUSED(ignored))
{
    if (check_ready(s) < 0)
        return NULL;
    s->now = s->eng->now;
    if (admit(s) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* One native event: the stage ``stage`` of connection ``ci``, at the
 * clock Engine.run has just set. */
static int
dispatch(PyObject *client, int stage, int ci)
{
    Core *s = (Core *)client;
    if (ci < 0 || ci >= s->nconns) {
        PyErr_Format(PyExc_IndexError, "no connection %d", ci);
        return -1;
    }
    s->now = s->eng->now;
    switch (stage) {
    case ST_BEGIN: return stage_begin(s, ci);
    case ST_DECIDE: return stage_decide(s, ci);
    case ST_ADVANCE: return stage_advance(s, ci);
    case ST_COMPLETE: return stage_complete(s, ci);
    case ST_COALESCED: return stage_coalesced(s, ci);
    case ST_DISPATCH: return stage_dispatch(s, ci);
    case ST_TIMED_OUT: return stage_timed_out(s, ci);
    default: return stage_retry(s, ci);
    }
}

static PyObject *
Core_finish(Core *s, PyObject *Py_UNUSED(ignored))
{
    if (check_ready(s) < 0)
        return NULL;
    s->ran = 1;
    int written = write_back(s);
    Core_clear_refs(s);
    if (written < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* A brownout installed another cost model on node ``i``. */
static PyObject *
Core_reload_node(Core *s, PyObject *arg)
{
    if (check_ready(s) < 0)
        return NULL;
    long i = PyLong_AsLong(arg);
    if (i == -1 && PyErr_Occurred())
        return NULL;
    if (i < 0 || i >= s->num_nodes) {
        PyErr_Format(PyExc_IndexError, "no node %ld", i);
        return NULL;
    }
    if (node_costs(s, &s->nodes[i]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_flush_rows(Core *s, PyObject *Py_UNUSED(ignored))
{
    if (check_ready(s) < 0 || (s->rows && rows_flush(s) < 0))
        return NULL;
    Py_RETURN_NONE;
}

static PyMemberDef Core_members[] = {
    {"max_in_flight", T_LONGLONG, offsetof(Core, max_in_flight), 0,
     "The admission limit the core admits to (FrontEnd.max_in_flight)."},
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef Core_methods[] = {
    {"admit", (PyCFunction)Core_admit, METH_NOARGS,
     "FrontEnd.admit on the native core: the initial fill, staged, and a rejoin's refill."},
    {"reload_node", (PyCFunction)Core_reload_node, METH_O,
     "reload_node(i): node i's cost constants and disk-time table changed (a brownout)."},
    {"flush_rows", (PyCFunction)Core_flush_rows, METH_NOARGS,
     "The span rows written so far go to the tracer's writer (before a fault record)."},
    {"finish", (PyCFunction)Core_finish, METH_NOARGS,
     "The run is over: write the books back into the Python objects."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._native.Core",
    .tp_basicsize = sizeof(Core),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Core_traverse,
    .tp_clear = (inquiry)Core_clear_refs,
    .tp_doc = "One run of the request lifecycle, compiled.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Core_init,
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_methods = Core_methods,
    .tp_members = Core_members,
};

/* -- span rows to JSONL ---------------------------------------------------- */

/* The text being built, grown as it goes. */
typedef struct {
    char *buf;
    Py_ssize_t len, cap;
} Text;

static int
text_reserve(Text *t, Py_ssize_t extra)
{
    if (t->len + extra <= t->cap)
        return 0;
    Py_ssize_t cap = 2 * t->cap > t->len + extra ? 2 * t->cap : t->len + extra;
    char *grown = PyMem_Realloc(t->buf, (size_t)cap);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    t->buf = grown;
    t->cap = cap;
    return 0;
}

/* Appends assume the row's room is reserved (render_rows reserves it). */
static inline void
text_put(Text *t, const char *s, size_t n)
{
    memcpy(t->buf + t->len, s, n);
    t->len += (Py_ssize_t)n;
}

#define TEXT_LITERAL(t, literal) text_put(t, literal, sizeof(literal) - 1)

/* An integer as ``int.__repr__`` writes it. */
static void
text_int(Text *t, long long value)
{
    char digits[24];
    int n = 0;
    unsigned long long u = value < 0 ? 0ULL - (unsigned long long)value : (unsigned long long)value;
    do {
        digits[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (value < 0)
        digits[n++] = '-';
    while (n)
        t->buf[t->len++] = digits[--n];
}

/* The shortest digits of a double x = m * 2^e that read back as x,
 * the one nearest x among them (float.__repr__'s digits), for the
 * normal doubles in [2^-37, 2^52) that are not a power of two: every
 * time and phase a simulated span carries.  Exact, in 128-bit integers:
 * scaled by 10^k, the smallest power with 10^k * 2^e >= 1, the doubles
 * that round to x fill an interval longer than 1, so its integers are
 * candidates, and the shortest is the one with most trailing zeros.
 * Returns the digits (no trailing zeros) and sets *decpt, the decimal
 * point's position after the first digit, as dtoa does; 0: not covered
 * (or an exact tie between two candidates), the caller falls back. */
static uint64_t
shortest_digits(double x, int *decpt)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int field = (int)(bits >> 52 & 0x7ff);
    uint64_t m = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
    int e = field - 1075;
    if (bits >> 63 || field == 0 || m == 1ULL << 52 || e < -89 || e > -1)
        return 0;
    /* k = ceil(-e * log10(2)): floor(n * log10(2)) is (n * 78913) >> 18
     * for n < 2620, and -e * log10(2) is never an integer. */
    int k = ((-e * 78913) >> 18) + 1;
    int t = 2 - e - k; /* x * 10^k = (4m * 5^k) / 2^t */
    uint64_t five = 1;
    for (int i = 0; i < k; i++)
        five *= 5; /* 5^27 < 2^63 */
    unsigned __int128 lower = (unsigned __int128)(4 * m - 2) * five;
    unsigned __int128 upper = (unsigned __int128)(4 * m + 2) * five;
    unsigned __int128 value = (unsigned __int128)(4 * m) * five;
    unsigned __int128 below = ((unsigned __int128)1 << t) - 1;
    /* An even m keeps the interval's ends (strtod rounds half to even). */
    uint64_t lo, hi;
    if (m & 1) {
        lo = (uint64_t)(lower >> t) + 1;
        hi = (uint64_t)((upper + below) >> t) - 1;
    }
    else {
        lo = (uint64_t)((lower + below) >> t);
        hi = (uint64_t)(upper >> t);
    }
    int j = 0;
    uint64_t scale = 1;
    while ((lo + 9) / 10 <= hi / 10) {
        lo = (lo + 9) / 10;
        hi /= 10;
        j++;
        scale *= 10;
    }
    /* The candidate nearest x: x * 10^(k-j) rounded, kept in [lo, hi]. */
    uint64_t whole = (uint64_t)(value >> t);
    unsigned __int128 frac = value & below;
    uint64_t q = whole / scale, r = whole % scale;
    int up, tie;
    if (j == 0) {
        unsigned __int128 half = (unsigned __int128)1 << (t - 1);
        up = frac > half;
        tie = frac == half;
    }
    else {
        uint64_t half = scale / 2;
        up = r > half || (r == half && frac != 0);
        tie = r == half && frac == 0;
    }
    if (tie)
        return 0;
    uint64_t digits = q + (uint64_t)up;
    if (digits < lo)
        digits = lo;
    if (digits > hi)
        digits = hi;
    int length = 1;
    for (uint64_t rest = digits; rest >= 10; rest /= 10)
        length++;
    *decpt = length + j - k;
    return digits;
}

/* A finite float as ``float.__repr__`` writes it; at most 24
 * characters. */
static int
text_float(Text *t, double value)
{
    int decpt;
    uint64_t digits = shortest_digits(value, &decpt);
    if (digits == 0) {
        char *repr = PyOS_double_to_string(value, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
        if (repr == NULL)
            return -1;
        text_put(t, repr, strlen(repr));
        PyMem_Free(repr);
        return 0;
    }
    char text[20];
    int n = 0;
    for (; digits; digits /= 10)
        text[n++] = (char)('0' + digits % 10);
    /* text holds the n digits backwards.  Python's 'r' format: fixed
     * notation for -4 < decpt <= 16, else an exponent of two or more
     * digits. */
    if (decpt <= -4 || decpt > 16) {
        t->buf[t->len++] = text[--n];
        if (n) {
            t->buf[t->len++] = '.';
            while (n)
                t->buf[t->len++] = text[--n];
        }
        int exponent = decpt - 1;
        t->buf[t->len++] = 'e';
        t->buf[t->len++] = exponent < 0 ? '-' : '+';
        if (exponent < 0)
            exponent = -exponent;
        if (exponent >= 100)
            t->buf[t->len++] = (char)('0' + exponent / 100);
        t->buf[t->len++] = (char)('0' + exponent / 10 % 10);
        t->buf[t->len++] = (char)('0' + exponent % 10);
    }
    else if (decpt <= 0) {
        TEXT_LITERAL(t, "0.");
        for (int i = decpt; i < 0; i++)
            t->buf[t->len++] = '0';
        while (n)
            t->buf[t->len++] = text[--n];
    }
    else {
        int written = 0;
        while (n) {
            if (written++ == decpt)
                t->buf[t->len++] = '.';
            t->buf[t->len++] = text[--n];
        }
        for (; written < decpt; written++)
            t->buf[t->len++] = '0';
        if (written == decpt)
            TEXT_LITERAL(t, ".0");
    }
    return 0;
}

/* A row's phases, in the sorted order of their names (json.dumps's
 * sort_keys): cpu, disk, establish, queue, retry, teardown. */
static const struct {
    int phase;
    const char *key;
} sorted_phases[NUM_PHASES] = {
    {PH_CPU, "\"cpu\":"},     {PH_DISK, "\"disk\":"},   {PH_ESTABLISH, "\"establish\":"},
    {PH_QUEUE, "\"queue\":"}, {PH_RETRY, "\"retry\":"}, {PH_TEARDOWN, "\"teardown\":"},
};

static const char *const outcome_names[] = {
    "hit", "miss", "coalesced", "gms_local", "gms_remote", "dynamic", "lost",
};

/* render_rows(ints, floats, loads, n, policy): the JSONL lines of the
 * first n rows of a chunk (SpanWriter.write_rows has checked them),
 * byte for byte what _SpanEncoder.encode writes for their spans;
 * ``policy`` comes quoted. */
static PyObject *
render_rows(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *arrays[3], *policy;
    Py_ssize_t n;
    if (!PyArg_ParseTuple(args, "OOOnU:render_rows", &arrays[0], &arrays[1], &arrays[2], &n,
                          &policy))
        return NULL;
    Py_ssize_t policy_len;
    const char *policy_text = PyUnicode_AsUTF8AndSize(policy, &policy_len);
    if (policy_text == NULL)
        return NULL;
    Py_buffer views[3];
    int got = 0;
    for (; got < 3; got++) {
        if (PyObject_GetBuffer(arrays[got], &views[got], PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
            break;
    }
    PyObject *result = NULL;
    Text text = {NULL, 0, 0};
    if (got < 3)
        goto done;
    Py_ssize_t width = views[2].ndim == 2 ? views[2].shape[1] : -1;
    static const Py_ssize_t widths[2] = {ROW_INTS, ROW_FLOATS};
    for (int k = 0; k < 3; k++) {
        if (views[k].ndim != 2 || views[k].itemsize != 8 || views[k].shape[0] < n || n < 0
            || (k < 2 && views[k].shape[1] != widths[k])) {
            PyErr_SetString(PyExc_ValueError, "render_rows: not a chunk of span rows");
            goto done;
        }
    }
    for (Py_ssize_t r = 0; r < n; r++) {
        const long long *ints = (const long long *)views[0].buf + r * ROW_INTS;
        const double *floats = (const double *)views[1].buf + r * ROW_FLOATS;
        const long long *load = (const long long *)views[2].buf + r * width;
        long long outcome = ints[R_OUTCOME];
        if (outcome < 0 || outcome > OUT_LOST) {
            PyErr_Format(PyExc_ValueError, "render_rows: outcome code %lld", outcome);
            goto done;
        }
        /* Every field but the floats, 24 characters each, fits here. */
        if (text_reserve(&text, 320 + policy_len + 21 * (width + 6) + 24 * (3 + NUM_PHASES)) < 0)
            goto done;
        TEXT_LITERAL(&text, "{\"kind\":\"span\",");
        if (outcome != OUT_LOST) {
            TEXT_LITERAL(&text, "\"load\":[");
            for (Py_ssize_t i = 0; i < width; i++) {
                if (i)
                    TEXT_LITERAL(&text, ",");
                text_int(&text, load[i]);
            }
            TEXT_LITERAL(&text, "],");
        }
        TEXT_LITERAL(&text, "\"node\":");
        text_int(&text, ints[R_NODE]);
        TEXT_LITERAL(&text, ",\"outcome\":\"");
        const char *name = outcome_names[outcome];
        text_put(&text, name, strlen(name));
        TEXT_LITERAL(&text, "\",\"phases\":{");
        int first = 1;
        for (int p = 0; p < NUM_PHASES; p++) {
            int phase = sorted_phases[p].phase;
            if (!(ints[R_MASK] >> phase & 1))
                continue;
            if (!first)
                TEXT_LITERAL(&text, ",");
            first = 0;
            text_put(&text, sorted_phases[p].key, strlen(sorted_phases[p].key));
            if (text_float(&text, floats[R_PHASES + phase]) < 0)
                goto done;
        }
        TEXT_LITERAL(&text, "},\"policy\":");
        text_put(&text, policy_text, (size_t)policy_len);
        TEXT_LITERAL(&text, ",\"req\":");
        text_int(&text, ints[R_REQ]);
        TEXT_LITERAL(&text, ",\"size\":");
        text_int(&text, ints[R_SIZE]);
        TEXT_LITERAL(&text, ",\"t_arrival\":");
        Py_ssize_t arrival = text.len;
        if (text_float(&text, floats[R_ARRIVAL]) < 0)
            goto done;
        Py_ssize_t arrival_len = text.len - arrival;
        TEXT_LITERAL(&text, ",\"t_complete\":");
        if (text_float(&text, floats[R_COMPLETE]) < 0)
            goto done;
        TEXT_LITERAL(&text, ",\"t_dispatch\":");
        memmove(text.buf + text.len, text.buf + arrival, (size_t)arrival_len);
        text.len += arrival_len;
        TEXT_LITERAL(&text, ",\"target\":\"");
        text_int(&text, ints[R_TARGET]);
        TEXT_LITERAL(&text, "\"}\n");
    }
    result = PyUnicode_DecodeASCII(text.buf ? text.buf : "", text.len, NULL);
done:
    for (int k = 0; k < got; k++)
        PyBuffer_Release(&views[k]);
    PyMem_Free(text.buf);
    return result;
}

static PyMethodDef lifecycle_functions[] = {
    {"render_rows", render_rows, METH_VARARGS,
     "render_rows(ints, floats, loads, n, policy): the JSONL lines of n span rows."},
    {NULL, NULL, 0, NULL},
};

int
lifecycle_init(PyObject *module)
{
    if (PyType_Ready(&CoreType) < 0)
        return -1;
    s_dispatches = PyUnicode_InternFromString("dispatches");
    s_completions = PyUnicode_InternFromString("completions");
    s_min_load = PyUnicode_InternFromString("_min_load");
    s_min_cursor = PyUnicode_InternFromString("_min_cursor");
    s_flush = PyUnicode_InternFromString("flush");
    if (!s_dispatches || !s_completions || !s_min_load || !s_min_cursor || !s_flush)
        return -1;
    if (PyModule_AddFunctions(module, lifecycle_functions) < 0)
        return -1;
    return PyModule_AddObjectRef(module, "Core", (PyObject *)&CoreType);
}
