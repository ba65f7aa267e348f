/* The discrete-event Engine of repro.sim.engine, compiled.
 *
 * engine.py is the reference: this type keeps its whole contract --
 * post, push, seqs, schedule, schedule_at, process, run(until), stop,
 * install_sanitizer, runs_next, now, pending, scheduled and
 * events_dispatched -- and its order of events: a total (time, seq)
 * order, with the events staged for the current instant dispatched after
 * any heap entry due at the same time.  tests/test_sim_engine.py and
 * tests/test_sim_engine_reference.py run against both.
 *
 * The heap holds C structs, not tuples: a Python event is its time, its
 * seq, fn and arg, dispatched as fn(arg) by vectorcall; a native event
 * (fn NULL) is a tag and an index that the bound client -- the compiled
 * request lifecycle, _lifecycle.c -- dispatches with no Python object
 * made for it.  events_dispatched is counted as events are dispatched,
 * an event that raised included.  A client bound with a check (the
 * lifecycle of a sanitized run) checks the sanitizer's laws after each
 * event itself, where the hook would be called.
 *
 * repro.sim.native builds this file and the lifecycle into one
 * extension on first use; a ClusterSimulator makes this engine for its
 * run at first use, and one made under a profiler is engine.py's.
 */

#include "_engine.h"
#include <math.h>
#include <structmember.h>

PyObject *SimulationError;        /* repro.sim.engine.SimulationError */
static PyObject *ProcessType;     /* repro.sim.engine.Process */
static PyObject *op_call;         /* operator.call: call(f) is f() */
static PyObject *partial_type;    /* functools.partial */

/* -- the event queue ------------------------------------------------------- */

int
queue_grow_heap(EventQueue *q)
{
    Py_ssize_t cap = q->heap_cap ? 2 * q->heap_cap : 64;
    Event *grown = PyMem_Realloc(q->heap, (size_t)cap * sizeof(Event));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    q->heap = grown;
    q->heap_cap = cap;
    return 0;
}

int
queue_grow_fifo(EventQueue *q)
{
    Py_ssize_t cap = q->fifo_cap ? 2 * q->fifo_cap : 64;
    Event *grown = PyMem_Malloc((size_t)cap * sizeof(Event));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t k = 0; k < q->fifo_len; k++)
        grown[k] = q->fifo[(q->fifo_head + k) & (q->fifo_cap - 1)];
    PyMem_Free(q->fifo);
    q->fifo = grown;
    q->fifo_head = 0;
    q->fifo_cap = cap;
    return 0;
}

/* heapq.heappop: the smaller child climbs until a leaf is free, then the
 * last entry settles from there. */
static Event
queue_heap_pop(EventQueue *q)
{
    Event *heap = q->heap;
    Event top = heap[0];
    Py_ssize_t end = --q->heap_len;
    if (end == 0)
        return top;
    Event last = heap[end];
    Py_ssize_t pos = 0, child = 1;
    while (child < end) {
        if (child + 1 < end && !event_before(&heap[child], &heap[child + 1]))
            child++;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!event_before(&last, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = last;
    return top;
}

static Event
queue_fifo_pop(EventQueue *q)
{
    Event ev = q->fifo[q->fifo_head];
    q->fifo_head = (q->fifo_head + 1) & (q->fifo_cap - 1);
    q->fifo_len--;
    return ev;
}

static void
event_release(Event *ev)
{
    if (ev->fn != NULL) {
        Py_DECREF(ev->fn);
        Py_DECREF(ev->u.arg);
    }
}

static int
queue_traverse(EventQueue *q, visitproc visit, void *arg)
{
    for (Py_ssize_t k = 0; k < q->heap_len; k++) {
        if (q->heap[k].fn != NULL) {
            Py_VISIT(q->heap[k].fn);
            Py_VISIT(q->heap[k].u.arg);
        }
    }
    for (Py_ssize_t k = 0; k < q->fifo_len; k++) {
        Event *ev = &q->fifo[(q->fifo_head + k) & (q->fifo_cap - 1)];
        if (ev->fn != NULL) {
            Py_VISIT(ev->fn);
            Py_VISIT(ev->u.arg);
        }
    }
    return 0;
}

static int
queue_clear(EventQueue *q)
{
    /* Emptied before any reference goes: a finalizer run by a release
     * may look at the queue. */
    while (q->heap_len) {
        Event ev = q->heap[--q->heap_len];
        event_release(&ev);
    }
    while (q->fifo_len) {
        Event ev = queue_fifo_pop(q);
        event_release(&ev);
    }
    return 0;
}

static void
queue_dealloc(EventQueue *q)
{
    PyObject_GC_UnTrack(q);
    queue_clear(q);
    PyMem_Free(q->heap);
    PyMem_Free(q->fifo);
    Py_TYPE(q)->tp_free((PyObject *)q);
}

/* next(engine.seqs): the next tie-break number. */
static PyObject *
queue_next_seq(EventQueue *q)
{
    return PyLong_FromUnsignedLongLong(q->next_seq++);
}

/* An event tuple, (time, seq, fn, arg), as a struct holding fn and arg. */
static int
parse_event(PyObject *event, Event *ev)
{
    if (!PyTuple_Check(event) || PyTuple_GET_SIZE(event) != 4) {
        PyErr_SetString(PyExc_TypeError, "an event is a (time, seq, fn, arg) tuple");
        return -1;
    }
    ev->time = PyFloat_AsDouble(PyTuple_GET_ITEM(event, 0));
    if (ev->time == -1.0 && PyErr_Occurred())
        return -1;
    ev->seq = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(event, 1));
    if (ev->seq == (uint64_t)-1 && PyErr_Occurred())
        return -1;
    ev->fn = Py_NewRef(PyTuple_GET_ITEM(event, 2));
    ev->u.arg = Py_NewRef(PyTuple_GET_ITEM(event, 3));
    return 0;
}

/* engine.push((time, seq, fn, arg)): onto the heap as given, for a
 * caller that drew seq from engine.seqs and checked time > now. */
static PyObject *
queue_push(EventQueue *q, PyObject *event)
{
    Event ev;
    if (parse_event(event, &ev) < 0)
        return NULL;
    if (queue_heap_push(q, ev) < 0) {
        event_release(&ev);
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef queue_push_def = {
    "push", (PyCFunction)queue_push, METH_O,
    "push((time, seq, fn, arg)): the event onto the heap, as given.",
};

static PyTypeObject EventQueueType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._native.EventQueue",
    .tp_basicsize = sizeof(EventQueue),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "An engine's events and tie-break counter; iterating it draws seqs.",
    .tp_traverse = (traverseproc)queue_traverse,
    .tp_clear = (inquiry)queue_clear,
    .tp_dealloc = (destructor)queue_dealloc,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)queue_next_seq,
};

/* -- the engine ------------------------------------------------------------------ */

int
engine_bind(EngineObject *e, PyObject *client, NativeDispatch dispatch, NativeCheck check)
{
    if (e->client != NULL && e->client != client) {
        PyErr_SetString(PyExc_RuntimeError, "the engine already runs another native client");
        return -1;
    }
    e->client = client;
    e->dispatch = dispatch;
    e->check = check;
    return 0;
}

void
engine_unbind(EngineObject *e, PyObject *client)
{
    if (e->client == client) {
        e->client = NULL;
        e->dispatch = NULL;
        e->check = NULL;
    }
}

/* The clock moves.  ``now`` is read from Python as an object slot, the
 * cheapest attribute read there is, so the engine always holds it as a
 * float; a float nobody else holds is updated in place, which nothing
 * can observe, so a run whose events never keep the clock (the compiled
 * lifecycle's) allocates nothing for it. */
static inline int
set_clock(EngineObject *e, double now)
{
    if (now == e->now)
        return 0;
    e->now = now;
    if (Py_REFCNT(e->now_obj) == 1) {
        ((PyFloatObject *)e->now_obj)->ob_fval = now;
        return 0;
    }
    PyObject *obj = PyFloat_FromDouble(now);
    if (obj == NULL)
        return -1;
    Py_SETREF(e->now_obj, obj);
    return 0;
}

/* An event for fn(arg) at ``when`` >= now: the heap if later, else the
 * FIFO of the current instant. */
static int
enqueue(EngineObject *e, double when, PyObject *fn, PyObject *arg)
{
    EventQueue *q = e->queue;
    Event ev;
    ev.time = when;
    ev.seq = q->next_seq++;
    ev.fn = Py_NewRef(fn);
    ev.u.arg = Py_NewRef(arg);
    int rc = when > e->now ? queue_heap_push(q, ev) : queue_stage(q, ev);
    if (rc < 0)
        event_release(&ev);
    return rc;
}

static int
post(EngineObject *e, PyObject *delay_obj, PyObject *fn, PyObject *arg)
{
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return -1;
    /* Not >=: a NaN delay fails every compare. */
    if (!(delay >= 0)) {
        PyErr_Format(SimulationError, "cannot schedule into the past or at NaN (delay=%R)",
                     delay_obj);
        return -1;
    }
    /* Routed on the computed time: a subnormal delay can round now +
     * delay back to now, and such an event keeps FIFO order. */
    return enqueue(e, e->now + delay, fn, arg);
}

/* callback(*args) folded into one function and one argument. */
static int
fold(PyObject *callback, PyObject *const *args, Py_ssize_t nargs, PyObject **fn, PyObject **arg)
{
    if (nargs == 1) {
        *fn = callback;
        *arg = Py_NewRef(args[0]);
        return 0;
    }
    *fn = op_call;
    if (nargs == 0) {
        *arg = Py_NewRef(callback);
        return 0;
    }
    PyObject *bound = PyTuple_New(nargs + 1);
    if (bound == NULL)
        return -1;
    PyTuple_SET_ITEM(bound, 0, Py_NewRef(callback));
    for (Py_ssize_t k = 0; k < nargs; k++)
        PyTuple_SET_ITEM(bound, k + 1, Py_NewRef(args[k]));
    *arg = PyObject_Call(partial_type, bound, NULL);
    Py_DECREF(bound);
    return *arg == NULL ? -1 : 0;
}

static PyObject *
Engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if (PyTuple_GET_SIZE(args) || (kwds != NULL && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "Engine() takes no arguments");
        return NULL;
    }
    EngineObject *e = (EngineObject *)type->tp_alloc(type, 0);
    if (e == NULL)
        return NULL;
    e->stopped = 1;
    if ((e->now_obj = PyFloat_FromDouble(0.0)) == NULL) {
        Py_DECREF(e);
        return NULL;
    }
    e->queue = PyObject_GC_New(EventQueue, &EventQueueType);
    if (e->queue == NULL) {
        Py_DECREF(e);
        return NULL;
    }
    e->queue->heap = e->queue->fifo = NULL;
    e->queue->heap_len = e->queue->heap_cap = 0;
    e->queue->fifo_head = e->queue->fifo_len = e->queue->fifo_cap = 0;
    e->queue->next_seq = 1;
    PyObject_GC_Track(e->queue);
    e->push = PyCFunction_New(&queue_push_def, (PyObject *)e->queue);
    if (e->push == NULL) {
        Py_DECREF(e);
        return NULL;
    }
    return (PyObject *)e;
}

static int
Engine_traverse(EngineObject *e, visitproc visit, void *arg)
{
    Py_VISIT(e->queue);
    Py_VISIT(e->push);
    Py_VISIT(e->hook);
    return 0;
}

static int
Engine_clear(EngineObject *e)
{
    e->client = NULL;
    e->dispatch = NULL;
    e->check = NULL;
    Py_CLEAR(e->queue);
    Py_CLEAR(e->push);
    Py_CLEAR(e->hook);
    Py_CLEAR(e->now_obj);
    return 0;
}

static void
Engine_dealloc(EngineObject *e)
{
    PyObject_GC_UnTrack(e);
    if (e->weakrefs != NULL)
        PyObject_ClearWeakRefs((PyObject *)e);
    Engine_clear(e);
    Py_TYPE(e)->tp_free((PyObject *)e);
}

static int
check_queue(EngineObject *e)
{
    if (e->queue == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "this engine was cleared");
        return -1;
    }
    return 0;
}

static PyObject *
Engine_post(EngineObject *e, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "post(delay, fn, arg) takes three arguments");
        return NULL;
    }
    if (check_queue(e) < 0 || post(e, args[0], args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_schedule(EngineObject *e, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "schedule(delay, callback, *args)");
        return NULL;
    }
    PyObject *fn, *arg;
    if (check_queue(e) < 0 || fold(args[1], args + 2, nargs - 2, &fn, &arg) < 0)
        return NULL;
    int rc = post(e, args[0], fn, arg);
    Py_DECREF(arg);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_get_now(EngineObject *e, void *Py_UNUSED(closure))
{
    if (e->now_obj == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "this engine was cleared");
        return NULL;
    }
    return Py_NewRef(e->now_obj);
}

static PyObject *
Engine_schedule_at(EngineObject *e, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "schedule_at(when, callback, *args)");
        return NULL;
    }
    if (check_queue(e) < 0)
        return NULL;
    double when = PyFloat_AsDouble(args[0]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(when >= e->now)) {
        PyObject *now = Engine_get_now(e, NULL);
        if (now != NULL) {
            PyErr_Format(SimulationError,
                         "cannot schedule into the past or at NaN (when=%R, now=%R)", args[0],
                         now);
            Py_DECREF(now);
        }
        return NULL;
    }
    PyObject *fn, *arg;
    if (fold(args[1], args + 2, nargs - 2, &fn, &arg) < 0)
        return NULL;
    int rc = enqueue(e, when, fn, arg);
    Py_DECREF(arg);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_process(EngineObject *e, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"gen", "name", NULL};
    PyObject *gen, *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|U:process", kwlist, &gen, &name)
        || check_queue(e) < 0)
        return NULL;
    PyObject *empty = NULL;
    if (name == NULL && (name = empty = PyUnicode_FromString("")) == NULL)
        return NULL;
    PyObject *proc = PyObject_CallFunctionObjArgs(ProcessType, (PyObject *)e, gen, name, NULL);
    Py_XDECREF(empty);
    if (proc == NULL)
        return NULL;
    /* Started through the queue, not here: creation order and execution
     * order are both deterministic. */
    PyObject *resume = PyObject_GetAttrString(proc, "_resume");
    if (resume == NULL || enqueue(e, e->now, resume, Py_None) < 0) {
        Py_XDECREF(resume);
        Py_DECREF(proc);
        return NULL;
    }
    Py_DECREF(resume);
    return proc;
}

PyObject *
event_callback(const Event *ev)
{
    return ev->fn == op_call ? ev->u.arg : ev->fn;
}

/* The sanitizer's view of an event that ran: a native event shows None. */
static int
show(PyObject *hook, const Event *ev)
{
    PyObject *args[2];
    args[0] = PyFloat_FromDouble(ev->time);
    if (args[0] == NULL)
        return -1;
    args[1] = ev->fn == NULL ? Py_None : event_callback(ev);
    PyObject *r = PyObject_Vectorcall(hook, args, 2, NULL);
    Py_DECREF(args[0]);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static PyObject *
Engine_run(EngineObject *e, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", NULL};
    PyObject *until = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:run", kwlist, &until) || check_queue(e) < 0)
        return NULL;
    double limit = INFINITY;
    if (until != Py_None) {
        limit = PyFloat_AsDouble(until);
        if (limit == -1.0 && PyErr_Occurred())
            return NULL;
        if (!(limit >= e->now)) {
            PyObject *now = Engine_get_now(e, NULL);
            if (now != NULL) {
                PyErr_Format(SimulationError, "cannot run into the past or to NaN (until=%R, now=%R)",
                             until, now);
                Py_DECREF(now);
            }
            return NULL;
        }
    }
    /* Read once: the hook installed when the run starts is the run's. */
    PyObject *hook = Py_XNewRef(e->hook);
    EventQueue *q = (EventQueue *)Py_NewRef(e->queue);
    int failed = 0;
    unsigned int tick = 0;
    e->stopped = 0;
    while (!e->stopped) {
        Event ev;
        /* Staged events are due at the clock, which the guard above
         * keeps <= until: only heap entries can be late.  A staged event
         * goes after any heap entry due at the same time (that entry was
         * pushed at an earlier clock reading, with a smaller seq). */
        if (q->fifo_len) {
            if (q->heap_len && q->heap[0].time <= q->fifo[q->fifo_head].time)
                ev = queue_heap_pop(q);
            else
                ev = queue_fifo_pop(q);
        }
        else if (q->heap_len && q->heap[0].time <= limit)
            ev = queue_heap_pop(q);
        else
            break;
        if (set_clock(e, ev.time) < 0) {
            event_release(&ev);
            failed = 1;
            break;
        }
        e->events_dispatched++;
        int rc;
        if (ev.fn == NULL) {
            if (e->dispatch == NULL) {
                PyErr_SetString(PyExc_RuntimeError, "a native event with no native client bound");
                rc = -1;
            }
            else
                rc = e->dispatch(e->client, ev.u.native.tag, ev.u.native.index);
        }
        else {
            PyObject *r = PyObject_Vectorcall(ev.fn, &ev.u.arg, 1, NULL);
            rc = r == NULL ? -1 : 0;
            Py_XDECREF(r);
        }
        /* A client that checks the laws itself does so in the hook's
         * place. */
        if (rc == 0 && hook != NULL)
            rc = e->check != NULL ? e->check(e->client, &ev) : show(hook, &ev);
        event_release(&ev);
        /* A native run executes no bytecode, so Ctrl-C is looked for
         * here. */
        if (rc < 0 || ((++tick & 0x3fff) == 0 && PyErr_CheckSignals() < 0)) {
            failed = 1;
            break;
        }
    }
    if (!failed && until != Py_None && e->now < limit && !e->stopped && set_clock(e, limit) < 0)
        failed = 1;
    e->stopped = 1;
    Py_XDECREF(hook);
    Py_DECREF(q);
    if (failed)
        return NULL;
    return Engine_get_now(e, NULL);
}

static PyObject *
Engine_stop(EngineObject *e, PyObject *Py_UNUSED(ignored))
{
    e->stopped = 1;
    Py_RETURN_NONE;
}

static PyObject *
Engine_runs_next(EngineObject *e, PyObject *Py_UNUSED(ignored))
{
    if (check_queue(e) < 0)
        return NULL;
    return PyBool_FromLong(engine_runs_next(e));
}

static PyObject *
Engine_install_sanitizer(EngineObject *e, PyObject *hook)
{
    Py_XSETREF(e->hook, hook == Py_None ? NULL : Py_NewRef(hook));
    Py_RETURN_NONE;
}

static PyObject *
Engine_get_sanitizer(EngineObject *e, void *Py_UNUSED(closure))
{
    return Py_NewRef(e->hook ? e->hook : Py_None);
}

static PyObject *
Engine_get_pending(EngineObject *e, void *Py_UNUSED(closure))
{
    if (check_queue(e) < 0)
        return NULL;
    return PyLong_FromSsize_t(e->queue->heap_len + e->queue->fifo_len);
}

static PyObject *
Engine_get_scheduled(EngineObject *e, void *Py_UNUSED(closure))
{
    if (check_queue(e) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(e->queue->next_seq - 1);
}

static PyObject *
Engine_repr(EngineObject *e)
{
    PyObject *now = Engine_get_now(e, NULL);
    if (now == NULL)
        return NULL;
    PyObject *text = PyUnicode_FromFormat(
        "<Engine t=%R pending=%zd (compiled)>", now,
        e->queue ? e->queue->heap_len + e->queue->fifo_len : 0);
    Py_DECREF(now);
    return text;
}

static PyMethodDef Engine_methods[] = {
    {"post", (PyCFunction)(void (*)(void))Engine_post, METH_FASTCALL,
     "post(delay, fn, arg): run fn(arg) after delay."},
    {"schedule", (PyCFunction)(void (*)(void))Engine_schedule, METH_FASTCALL,
     "schedule(delay, callback, *args): run callback(*args) after delay."},
    {"schedule_at", (PyCFunction)(void (*)(void))Engine_schedule_at, METH_FASTCALL,
     "schedule_at(when, callback, *args): run callback(*args) at when."},
    {"process", (PyCFunction)(void (*)(void))Engine_process, METH_VARARGS | METH_KEYWORDS,
     "process(gen, name=''): start a generator process at the current time."},
    {"run", (PyCFunction)(void (*)(void))Engine_run, METH_VARARGS | METH_KEYWORDS,
     "run(until=None): dispatch events; returns the clock."},
    {"stop", (PyCFunction)Engine_stop, METH_NOARGS,
     "Halt run() after the event now dispatching returns."},
    {"runs_next", (PyCFunction)Engine_runs_next, METH_NOARGS,
     "Whether an event staged now would be the next one dispatched."},
    {"install_sanitizer", (PyCFunction)Engine_install_sanitizer, METH_O,
     "Call hook(event_time, callback) after every dispatched event (None: none); a bound "
     "native client that checks the hook's laws itself does so in its place."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Engine_getset[] = {
    {"pending", (getter)Engine_get_pending, NULL, "Number of events still queued.", NULL},
    {"scheduled", (getter)Engine_get_scheduled, NULL, "Number of events ever scheduled.", NULL},
    {"_sanitizer", (getter)Engine_get_sanitizer, NULL,
     "The installed sanitizer hook, or None.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef Engine_members[] = {
    {"now", T_OBJECT_EX, offsetof(EngineObject, now_obj), READONLY, "The simulated clock."},
    {"events_dispatched", T_LONGLONG, offsetof(EngineObject, events_dispatched), 0,
     "Events dispatched, and run in place of staging."},
    {"seqs", T_OBJECT, offsetof(EngineObject, queue), READONLY,
     "The tie-break counter: next(seqs) draws an event's seq."},
    {"push", T_OBJECT, offsetof(EngineObject, push), READONLY,
     "push((when, next(seqs), fn, arg)) for when > now."},
    {NULL, 0, 0, 0, NULL},
};

PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._native.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The discrete-event engine of repro.sim.engine, compiled.",
    .tp_new = Engine_new,
    .tp_weaklistoffset = offsetof(EngineObject, weakrefs),
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear,
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_repr = (reprfunc)Engine_repr,
    .tp_methods = Engine_methods,
    .tp_getset = Engine_getset,
    .tp_members = Engine_members,
};

/* -- the module -------------------------------------------------------------------- */

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "The compiled Engine and the compiled plain request lifecycle.",
    .m_size = -1,
};

static PyObject *
attribute(const char *module_name, const char *name)
{
    PyObject *module = PyImport_ImportModule(module_name);
    if (module == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttrString(module, name);
    Py_DECREF(module);
    return value;
}

PyMODINIT_FUNC
PyInit__native(void)
{
    if (PyType_Ready(&EventQueueType) < 0 || PyType_Ready(&EngineType) < 0)
        return NULL;
    if ((SimulationError = attribute("repro.sim.engine", "SimulationError")) == NULL
        || (ProcessType = attribute("repro.sim.engine", "Process")) == NULL
        || (op_call = attribute("operator", "call")) == NULL
        || (partial_type = attribute("functools", "partial")) == NULL)
        return NULL;
    PyObject *module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "Engine", (PyObject *)&EngineType) < 0
        || lifecycle_init(module) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
