/* The compiled Engine's layout and the C calls a native client makes.
 *
 * repro.sim.native builds _engine.c and repro/cluster/_lifecycle.c into
 * one extension; this header is what the second reads of the first.  An
 * event is a (time, seq) key and a payload: a Python fn and arg,
 * dispatched as fn(arg), or -- when fn is NULL -- a native event, a tag
 * and an index that the engine hands to the client bound to it (the
 * compiled request lifecycle) with no Python object made for it.
 */

#ifndef REPRO_SIM_ENGINE_H
#define REPRO_SIM_ENGINE_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef struct {
    double time;
    uint64_t seq;
    PyObject *fn; /* NULL: a native event */
    union {
        PyObject *arg;
        struct {
            int32_t tag;
            int32_t index;
        } native;
    } u;
} Event;

/* The events of one engine: the heap of future events, the FIFO of
 * events staged for the current instant, and the tie-break counter.  It
 * is also the engine's ``seqs`` iterator, and ``push`` is bound to it,
 * so neither refers back to the engine. */
typedef struct {
    PyObject_HEAD
    Event *heap;
    Py_ssize_t heap_len, heap_cap;
    Event *fifo; /* a ring; its capacity is a power of two */
    Py_ssize_t fifo_head, fifo_len, fifo_cap;
    uint64_t next_seq;
} EventQueue;

/* Runs a native event; 0, or -1 with an exception set. */
typedef int (*NativeDispatch)(PyObject *client, int tag, int index);

/* Checks a sanitized run's laws after an event, in place of the
 * sanitizer's hook; 0, or -1 with an exception set. */
typedef int (*NativeCheck)(PyObject *client, const Event *ev);

typedef struct {
    PyObject_HEAD
    EventQueue *queue;
    PyObject *push;    /* the queue's bound push */
    PyObject *now_obj; /* the clock as a float: Engine.now */
    PyObject *hook;    /* the sanitizer's hook, or NULL */
    PyObject *client;  /* borrowed: the client unbinds before it goes */
    NativeDispatch dispatch;
    NativeCheck check; /* the client's, called where the hook would be; or NULL */
    double now;
    long long events_dispatched;
    int stopped;
    PyObject *weakrefs;
} EngineObject;

extern PyTypeObject EngineType;
extern PyObject *SimulationError; /* repro.sim.engine.SimulationError */

int queue_grow_heap(EventQueue *q);
int queue_grow_fifo(EventQueue *q);

/* Bind the one native client of an engine, and the check it makes of
 * every event when a hook is installed (NULL: the hook is called); -1 if
 * another client is bound. */
int engine_bind(EngineObject *e, PyObject *client, NativeDispatch dispatch, NativeCheck check);
void engine_unbind(EngineObject *e, PyObject *client);

/* What the sanitizer's hook is shown of a Python event that ran: the
 * callback, a zero-argument one itself rather than operator.call
 * (borrowed). */
PyObject *event_callback(const Event *ev);

/* The compiled lifecycle's types, added to the extension module. */
int lifecycle_init(PyObject *module);

static inline int
event_before(const Event *a, const Event *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

static inline int
queue_heap_push(EventQueue *q, Event ev)
{
    if (q->heap_len == q->heap_cap && queue_grow_heap(q) < 0)
        return -1;
    Event *heap = q->heap;
    Py_ssize_t pos = q->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!event_before(&ev, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = ev;
    return 0;
}

static inline int
queue_stage(EventQueue *q, Event ev)
{
    if (q->fifo_len == q->fifo_cap && queue_grow_fifo(q) < 0)
        return -1;
    q->fifo[(q->fifo_head + q->fifo_len++) & (q->fifo_cap - 1)] = ev;
    return 0;
}

static inline Event
native_event(double time, uint64_t seq, int tag, int index)
{
    Event ev;
    ev.time = time;
    ev.seq = seq;
    ev.fn = NULL;
    ev.u.native.tag = tag;
    ev.u.native.index = index;
    return ev;
}

/* A native event at ``when``, which the caller has checked is after the
 * clock (Engine.push). */
static inline int
engine_push_native(EngineObject *e, double when, int tag, int index)
{
    EventQueue *q = e->queue;
    return queue_heap_push(q, native_event(when, q->next_seq++, tag, index));
}

/* A native event staged for the current instant (Engine.post(0.0, ...)). */
static inline int
engine_stage_native(EngineObject *e, int tag, int index)
{
    EventQueue *q = e->queue;
    return queue_stage(q, native_event(e->now, q->next_seq++, tag, index));
}

/* Engine.runs_next: a run loop is on, nothing is staged and nothing on
 * the heap is due at the current instant, so an event staged now would
 * be the very next one dispatched. */
static inline int
engine_runs_next(const EngineObject *e)
{
    const EventQueue *q = e->queue;
    return !e->stopped && q->fifo_len == 0 && (q->heap_len == 0 || q->heap[0].time > e->now);
}

#endif
