/*
 * The fast simulation kernel: the scoreboard loop of repro.cpu.pipeline
 * transcribed to C as a CPython extension, and the trace generator's loops.
 *
 * run() walks the columns of a lowered Program (repro.isa.program): the
 * `kinds` bytes, the `addresses` and `sizes` uint64 arrays, the `latencies`
 * float64 array and the CSR dependencies (`dep_offsets`, `dep_distances`,
 * int64), all read in place through the buffer protocol.  It reproduces
 * PipelineModel.run exactly:
 *
 * - every float operation is an IEEE-754 double add or compare in the
 *   reference's order (CPython floats are C doubles, and the module is
 *   built with -ffp-contract=off, so nothing is fused or reassociated);
 * - the ROB, load/store queues, MCQ and the completion ring are C arrays
 *   of doubles with the deque disciplines of the reference;
 * - cache accesses operate on the live Cache._sets dicts (tag -> dirty
 *   bit, least recently used first) through the dict C API: a hit deletes
 *   and re-inserts its tag, a miss evicts the first tag PyDict_Next
 *   yields.  bndstr/bndclr go through the Python MemoryCheckUnit, which
 *   accesses the same dicts, so both paths share one cache state;
 * - the MCU's selective bounds check (forwarding, BWB lookup, the Fig. 8a
 *   way walk with Fig. 10 steering, the bounds compare) runs here against
 *   the HBT's flat slot array (hbt._table: rows x ways x 8 slots of one
 *   64-bit word, or two when bounds are uncompressed), read through the
 *   buffer protocol with no Python call.  Only bndstr/bndclr
 *   (mcu.bounds_store/bounds_clear), hbt.advance_migration, the BWB
 *   OrderedDict's move_to_end/popitem and the histogram's observe call
 *   back into the Python attributes repro/kernel/fast.py binds.  After
 *   every callback that may change the HBT, the kernel re-reads its
 *   geometry (ways, _base, _resizing and the old table while resizing)
 *   and releases and re-acquires the slot array, which a resize replaces.
 *
 * Statistics accumulate in C counters and are returned to the caller,
 * which adds them to the real stats objects once, after the run.
 *
 * The module also runs the trace generator's per-event loops on CPython's
 * Mersenne Twister stream (warm_branches, preamble, trace_window and
 * dependency_draws; see "trace generation" below), writing the trace's
 * typed columns in place through the buffer protocol.
 * Addresses and bounds are 64-bit pointers: the program's columns hold
 * them as uint64 (Program range-checks hand-built values when it is
 * built), and an HBT line address past 2**64 raises SimulationError
 * instead of wrapping.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned long long u64;

static PyObject *SimulationError;
static PyObject *s_ways, *s_base, *s_resizing, *s_old_base, *s_old_ways,
    *s_row_ptr, *s_table, *s_ok, *s_latency, *s_kinds, *s_addresses,
    *s_latencies, *s_dep_offsets, *s_dep_distances, *s_sizes, *s_move_to_end,
    *s_popitem, *s_table_bits, *s_history_bits, *s_history, *s_predictions,
    *s_mispredictions;

/* ------------------------------------------------------------ integers */

/* A Python int in 0..2**64-1 as a u64; anything else raises. */
static int
as_u64(PyObject *value, u64 *out)
{
    u64 v = PyLong_AsUnsignedLongLong(value);
    if (v == (u64)-1 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
            PyErr_Clear();
            PyErr_Format(SimulationError,
                         "the fast kernel needs 64-bit unsigned values, got %R",
                         value);
        }
        return -1;
    }
    *out = v;
    return 0;
}

static int
u64_converter(PyObject *value, void *out)
{
    return as_u64(value, (u64 *)out) == 0;
}

/* 1 if `value` is an int in [0, 2**62) (stored in *out), 0 if it is some
 * other object, -1 on error.  Sums of two such values cannot overflow. */
static int
small_int(PyObject *value, long long *out)
{
    int overflow;
    long long v;
    if (!PyLong_Check(value))
        return 0;
    v = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < 0 || v >= (1LL << 62))
        return 0;
    *out = v;
    return 1;
}

static int
read_ll(PyObject *obj, PyObject *name, long long *out)
{
    long long v;
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    v = PyLong_AsLongLong(value);
    Py_DECREF(value);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static int
read_u64(PyObject *obj, PyObject *name, u64 *out)
{
    int status;
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    status = as_u64(value, out);
    Py_DECREF(value);
    return status;
}

static int
bit_length(long long v)
{
    u64 x = v < 0 ? (u64)0 - (u64)v : (u64)v;
    int n = 0;
    while (x) {
        n++;
        x >>= 1;
    }
    return n;
}

static int
address_overflow(void)
{
    PyErr_SetString(SimulationError,
                    "HBT line address does not fit in 64 bits");
    return -1;
}

/* *out = v << shift, refusing to drop bits. */
static int
shift_left(u64 v, int shift, u64 *out)
{
    if (shift < 0) {
        PyErr_SetString(PyExc_ValueError, "negative shift count");
        return -1;
    }
    if (v == 0) {
        *out = 0;
        return 0;
    }
    if (shift >= 64 || ((v >> (63 - shift)) >> 1) != 0)
        return address_overflow();
    *out = v << shift;
    return 0;
}

/* *out = a + b + c, refusing to wrap. */
static int
add3(u64 a, u64 b, u64 c, u64 *out)
{
    if (__builtin_add_overflow(a, b, out) || __builtin_add_overflow(*out, c, out))
        return address_overflow();
    return 0;
}

/* -------------------------------------------------------------- queues */

/* A deque of doubles that never holds more than `size` entries. */
typedef struct {
    double *buf;
    Py_ssize_t size, head, len;
} Queue;

static int
queue_init(Queue *q, Py_ssize_t capacity, Py_ssize_t appends)
{
    q->size = capacity < appends ? capacity : appends;
    if (q->size < 1)
        q->size = 1;
    q->head = q->len = 0;
    q->buf = PyMem_New(double, q->size);
    if (q->buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static inline double
queue_popleft(Queue *q)
{
    double v = q->buf[q->head];
    if (++q->head == q->size)
        q->head = 0;
    q->len--;
    return v;
}

static inline void
queue_append(Queue *q, double v)
{
    Py_ssize_t tail = q->head + q->len;
    if (tail >= q->size)
        tail -= q->size;
    q->buf[tail] = v;
    q->len++;
}

/* `if len(q) >= capacity: head = q.popleft()` -- 1 if popped, 0 if not,
 * -1 (IndexError, as deque.popleft raises) if the queue is empty. */
static inline int
queue_pop_if_full(Queue *q, Py_ssize_t capacity, double *head)
{
    if (q->len < capacity)
        return 0;
    if (q->len == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty deque");
        return -1;
    }
    *head = queue_popleft(q);
    return 1;
}

/* -------------------------------------------------------------- caches */

/* One cache level: the live Cache._sets list, its geometry and local
 * copies of its CacheStats counters. */
typedef struct {
    PyObject *sets;
    u64 nsets;
    int bits;
    Py_ssize_t assoc;
    double latency;
    u64 accesses, hits, misses, evictions, writebacks;
} Level;

typedef struct {
    Level l1d, l1b, l2;
    Level *bounds; /* &l1b, or &l1d when there is no bounds cache */
    u64 line_bytes;
    double dram_latency;
    u64 l1_l2_bytes, l2_dram_bytes, dram_accesses;
} Memory;

enum { MISS = 0, HIT = 1, MISS_DIRTY_VICTIM = 2 };

/* Cache.access: returns HIT, MISS, or MISS_DIRTY_VICTIM with the evicted
 * line's address in *writeback; -1 on error. */
static int
cache_access(Level *lv, u64 address, int is_write, u64 *writeback)
{
    u64 line = address >> lv->bits;
    u64 index = line % lv->nsets;
    PyObject *set = PyList_GET_ITEM(lv->sets, (Py_ssize_t)index);
    PyObject *tag, *dirty;
    int result = MISS;

    if (!PyDict_CheckExact(set)) {
        PyErr_SetString(PyExc_TypeError, "cache sets must be dicts");
        return -1;
    }
    tag = PyLong_FromUnsignedLongLong(line / lv->nsets);
    if (tag == NULL)
        return -1;
    lv->accesses++;
    dirty = PyDict_GetItemWithError(set, tag);
    if (dirty != NULL) {
        /* Move to the MRU position: delete, then re-insert. */
        int was_dirty = dirty == Py_True ? 1 : PyObject_IsTrue(dirty);
        if (was_dirty < 0 || PyDict_DelItem(set, tag) < 0 ||
            PyDict_SetItem(set, tag, was_dirty || is_write ? Py_True : Py_False) < 0)
            goto error;
        lv->hits++;
        Py_DECREF(tag);
        return HIT;
    }
    if (PyErr_Occurred())
        goto error;
    lv->misses++;
    if (PyDict_GET_SIZE(set) >= lv->assoc) {
        Py_ssize_t pos = 0;
        PyObject *victim, *victim_dirty;
        u64 victim_tag;
        int evicted_dirty;
        PyDict_Next(set, &pos, &victim, &victim_dirty);
        Py_INCREF(victim);
        evicted_dirty = victim_dirty == Py_True ? 1 : PyObject_IsTrue(victim_dirty);
        if (evicted_dirty < 0 || as_u64(victim, &victim_tag) < 0 ||
            PyDict_DelItem(set, victim) < 0) {
            Py_DECREF(victim);
            goto error;
        }
        Py_DECREF(victim);
        lv->evictions++;
        if (evicted_dirty) {
            lv->writebacks++;
            *writeback = (victim_tag * lv->nsets + index) << lv->bits;
            result = MISS_DIRTY_VICTIM;
        }
    }
    if (PyDict_SetItem(set, tag, is_write ? Py_True : Py_False) < 0)
        goto error;
    Py_DECREF(tag);
    return result;
error:
    Py_DECREF(tag);
    return -1;
}

/* The L2 side of one L1 miss (refill, or the dirty victim pushed down). */
static int
l2_access(Memory *m, u64 address, int is_write)
{
    u64 unused;
    int r = cache_access(&m->l2, address, is_write, &unused);
    if (r < 0)
        return -1;
    if (r != HIT) {
        if (r == MISS_DIRTY_VICTIM)
            m->l2_dram_bytes += m->line_bytes;
        m->l2_dram_bytes += m->line_bytes;
        m->dram_accesses++;
    }
    return r;
}

/* MemoryHierarchy._access_through: the latency of an access to `l1`. */
static int
access_through(Memory *m, Level *l1, u64 address, int is_write, double *latency)
{
    u64 writeback = 0;
    double total = l1->latency;
    int r = cache_access(l1, address, is_write, &writeback), r2;
    if (r < 0)
        return -1;
    if (r != HIT) {
        /* L2 refill on behalf of the L1 miss (read, never a write). */
        m->l1_l2_bytes += m->line_bytes;
        total += m->l2.latency;
        r2 = l2_access(m, address, 0);
        if (r2 < 0)
            return -1;
        if (r2 != HIT)
            total += m->dram_latency;
        /* Dirty L1 victim pushed down into the L2 (no latency cost). */
        if (r == MISS_DIRTY_VICTIM) {
            m->l1_l2_bytes += m->line_bytes;
            if (l2_access(m, writeback, 1) < 0)
                return -1;
        }
    }
    *latency = total;
    return 0;
}

/* ----------------------------------------------------------------- MCU */

typedef struct {
    PyObject *hbt, *migration_rows, *recent_stores, *observe, *bwb_table,
        *advance, *bounds_store, *bounds_clear;
    int ahc_shift, pac_shift, nonblocking, forwarding, bwb_lru, compression,
        way_shift;
    u64 ahc_low, pac_low;
    Py_ssize_t bwb_entries, slots_per_way, lines_per_way, num_rows;
    double check_base_latency;
    /* HBT geometry and slot array, as of the last callback. */
    long long ways, old_ways, row_ptr;
    u64 base, old_base;
    int resizing;
    Py_buffer table; /* table.obj is NULL while no array is held */
    const u64 *words;
    Py_ssize_t nwords;
    /* MCUStats / HBTStats / BWBStats counters. */
    u64 checks, signed_checks, forwards, lines, faults, lines_loaded,
        bwb_lookups, bwb_hits;
} MCU;

/* Drop the slot array the kernel holds, if any. */
static void
release_table(MCU *u)
{
    if (u->table.obj != NULL)
        PyBuffer_Release(&u->table);
    u->table.obj = NULL;
    u->words = NULL;
    u->nwords = 0;
}

static int
read_hbt(MCU *u)
{
    PyObject *flag, *table;
    release_table(u);
    table = PyObject_GetAttr(u->hbt, s_table);
    if (table == NULL)
        return -1;
    if (PyObject_GetBuffer(table, &u->table, PyBUF_C_CONTIGUOUS) < 0) {
        u->table.obj = NULL;
        Py_DECREF(table);
        return -1;
    }
    Py_DECREF(table);
    if (u->table.len % 8 != 0 || ((Py_uintptr_t)u->table.buf & 7) != 0) {
        release_table(u);
        PyErr_SetString(PyExc_TypeError, "the HBT slot array must hold aligned 64-bit words");
        return -1;
    }
    u->words = (const u64 *)u->table.buf;
    u->nwords = u->table.len / 8;
    if (read_ll(u->hbt, s_ways, &u->ways) < 0 ||
        read_u64(u->hbt, s_base, &u->base) < 0)
        return -1;
    flag = PyObject_GetAttr(u->hbt, s_resizing);
    if (flag == NULL)
        return -1;
    u->resizing = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    if (u->resizing < 0)
        return -1;
    if (u->resizing &&
        (read_u64(u->hbt, s_old_base, &u->old_base) < 0 ||
         read_ll(u->hbt, s_old_ways, &u->old_ways) < 0 ||
         read_ll(u->hbt, s_row_ptr, &u->row_ptr) < 0))
        return -1;
    return 0;
}

/* Call `fn(arg)` for its side effect on the HBT, then re-read it. */
static int
hbt_callback(MCU *u, PyObject *fn, PyObject *arg)
{
    PyObject *r = PyObject_CallOneArg(fn, arg);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return read_hbt(u);
}

/* Python's `lower <= addr < upper` (upper_or_size is the upper bound) or
 * `lower <= addr < lower + size` (is_size): 1, 0, or -1 on error. */
static int
contains(PyObject *lower, PyObject *upper_or_size, int is_size, u64 addr)
{
    long long lo, hi;
    int a = small_int(lower, &lo), b;
    PyObject *address, *upper;
    int result;

    if (a < 0)
        return -1;
    if (a && (long long)addr < lo)
        return 0;
    b = small_int(upper_or_size, &hi);
    if (b < 0)
        return -1;
    if (a && b)
        return (long long)addr < (is_size ? lo + hi : hi);
    /* Operands outside the fast range: compare as Python does. */
    address = PyLong_FromUnsignedLongLong(addr);
    if (address == NULL)
        return -1;
    result = PyObject_RichCompareBool(lower, address, Py_LE);
    if (result == 1) {
        upper = is_size ? PyNumber_Add(lower, upper_or_size) : upper_or_size;
        if (upper == NULL)
            result = -1;
        else {
            result = PyObject_RichCompareBool(address, upper, Py_LT);
            if (is_size)
                Py_DECREF(upper);
        }
    }
    Py_DECREF(address);
    return result;
}

/* Does `way` of row `pac` hold bounds for `addr`?  1, 0, or -1 when the
 * slot array is smaller than the geometry says. */
static int
way_hit(MCU *u, u64 pac, long long way, u64 addr, u64 addr33, u64 not_bit32)
{
    Py_ssize_t words_per_slot = u->compression ? 1 : 2;
    Py_ssize_t width = u->slots_per_way * words_per_slot;
    Py_ssize_t start = ((Py_ssize_t)pac * (Py_ssize_t)u->ways + (Py_ssize_t)way) * width;
    const u64 *slot, *stop;
    if (start < 0 || start + width > u->nwords) {
        PyErr_SetString(SimulationError, "HBT slot array smaller than its geometry");
        return -1;
    }
    slot = u->words + start;
    stop = slot + width;
    if (u->compression) {
        for (; slot < stop; slot++) {
            u64 raw = *slot, low_field, lower, t_addr;
            if (raw == 0)
                continue;
            low_field = raw & 0x1FFFFFFFULL;
            lower = low_field << 4;
            t_addr = ((((low_field >> 28) & 1) & not_bit32) << 33) | addr33;
            if (lower <= t_addr && t_addr < lower + ((raw >> 29) & 0xFFFFFFFFULL))
                return 1;
        }
    }
    else {
        /* (lower, upper) pairs; a free slot's [0, 0) holds nothing. */
        for (; slot < stop; slot += 2)
            if (slot[0] <= addr && addr < slot[1])
                return 1;
    }
    return 0;
}

/* The line address of `way` in the table at `table_base` + `row_offset`. */
static int
way_line(MCU *u, u64 table_base, u64 row_offset, long long way, u64 *out)
{
    u64 way_offset;
    if (shift_left((u64)way, u->way_shift, &way_offset) < 0)
        return -1;
    return add3(table_base, row_offset, way_offset, out);
}

/* BWB bookkeeping once the walk found `found_way` (BoundsWayBuffer.update). */
static int
bwb_update(MCU *u, PyObject *tag, long long found_way)
{
    PyObject *way = PyLong_FromLongLong(found_way), *r;
    int present, status = -1;
    if (way == NULL)
        return -1;
    present = PyDict_Contains(u->bwb_table, tag);
    if (present < 0)
        goto done;
    if (present) {
        if (PyObject_SetItem(u->bwb_table, tag, way) < 0)
            goto done;
        if (u->bwb_lru) {
            r = PyObject_CallMethodOneArg(u->bwb_table, s_move_to_end, tag);
            if (r == NULL)
                goto done;
            Py_DECREF(r);
        }
    }
    else {
        Py_ssize_t size = PyObject_Size(u->bwb_table);
        if (size < 0)
            goto done;
        if (size >= u->bwb_entries) {
            r = PyObject_CallMethodOneArg(u->bwb_table, s_popitem, Py_False);
            if (r == NULL)
                goto done;
            Py_DECREF(r);
        }
        if (PyObject_SetItem(u->bwb_table, tag, way) < 0)
            goto done;
    }
    status = 0;
done:
    Py_DECREF(way);
    return status;
}

/* MemoryCheckUnit.check_access for a signed pointer (Fig. 6 + Fig. 8a):
 * the check's latency in *check_latency and whether it failed in *failed. */
static int
check_signed(Memory *m, MCU *u, u64 address, u64 ahc, u64 va_mask,
             double *check_latency, int *failed)
{
    u64 addr = address & va_mask;
    u64 pac = (address >> u->pac_shift) & u->pac_low;
    u64 window, tag, row_offset, old_offset = 0, first, addr33, not_bit32;
    PyObject *pac_obj = NULL, *tag_obj = NULL, *pending;
    long long ways, old_ways = 0, row_ptr = 0, way = 0, count = 0, visits = 0,
              found_way = -1;
    u64 base, old_base = 0;
    int resizing, status = -1, hit;
    double latency;

    u->signed_checks++;
    *failed = 0;
    if (u->resizing && u->nonblocking &&
        hbt_callback(u, u->advance, u->migration_rows) < 0)
        return -1;
    pac_obj = PyLong_FromUnsignedLongLong(pac);
    if (pac_obj == NULL)
        return -1;
    if (u->forwarding) {
        pending = PyDict_GetItemWithError(u->recent_stores, pac_obj);
        if (pending == NULL && PyErr_Occurred())
            goto done;
        if (pending != NULL) {
            PyObject *lower, *size;
            Py_INCREF(pending);
            lower = PySequence_GetItem(pending, 0);
            size = lower == NULL ? NULL : PySequence_GetItem(pending, 1);
            hit = size == NULL ? -1 : contains(lower, size, 1, addr);
            Py_XDECREF(lower);
            Py_XDECREF(size);
            Py_DECREF(pending);
            if (hit < 0)
                goto done;
            if (hit) {
                u->forwards++;
                *check_latency = 1.0;
                status = 0;
                goto done;
            }
        }
    }

    /* BWB tag (Algorithm 2) + lookup. */
    if (ahc == 1)
        window = (addr >> 7) & 0x3FFF;
    else if (ahc == 2)
        window = (addr >> 10) & 0x3FFF;
    else
        window = (addr >> 12) & 0x3FFF;
    tag = ((pac & 0xFFFF) << 16) | (window << 2) | ahc;
    ways = u->ways;
    if (u->bwb_table != Py_None) {
        PyObject *hint;
        u->bwb_lookups++;
        tag_obj = PyLong_FromUnsignedLongLong(tag);
        if (tag_obj == NULL)
            goto done;
        hint = PyDict_GetItemWithError(u->bwb_table, tag_obj);
        if (hint == NULL && PyErr_Occurred())
            goto done;
        if (hint != NULL) {
            long long h = PyLong_AsLongLong(hint);
            if (h == -1 && PyErr_Occurred())
                goto done;
            if (h < 0) {
                PyErr_Format(SimulationError, "negative BWB way hint %lld", h);
                goto done;
            }
            if (h >= ways) {
                if (PyObject_DelItem(u->bwb_table, tag_obj) < 0)
                    goto done;
            }
            else {
                u->bwb_hits++;
                if (u->bwb_lru) {
                    PyObject *r = PyObject_CallMethodOneArg(
                        u->bwb_table, s_move_to_end, tag_obj);
                    if (r == NULL)
                        goto done;
                    Py_DECREF(r);
                }
                way = h;
            }
        }
    }

    /* Fig. 8a way walk against the HBT's slot array. */
    if (pac >= (u64)u->num_rows) {
        char hex[24];
        snprintf(hex, sizeof(hex), "%#llx", pac);
        PyErr_Format(SimulationError, "PAC %s out of range", hex);
        goto done;
    }
    base = u->base;
    resizing = u->resizing;
    if (shift_left(pac, bit_length(ways) - 1 + u->way_shift, &row_offset) < 0)
        goto done;
    if (resizing) {
        old_base = u->old_base;
        old_ways = u->old_ways;
        row_ptr = u->row_ptr;
        if (shift_left(pac, bit_length(old_ways) - 1 + u->way_shift, &old_offset) < 0)
            goto done;
    }
    addr33 = addr & 0x1FFFFFFFFULL;
    not_bit32 = 1 - ((addr >> 32) & 1);
    *check_latency = u->check_base_latency;
    for (;;) {
        visits++;
        /* Fig. 10 steering: old table only for ways the old geometry had,
         * in rows not yet migrated. */
        if (resizing && way < old_ways && (long long)pac >= row_ptr) {
            if (way_line(u, old_base, old_offset, way, &first) < 0)
                goto done;
        }
        else if (way_line(u, base, row_offset, way, &first) < 0)
            goto done;
        if (access_through(m, m->bounds, first, 0, &latency) < 0)
            goto done;
        *check_latency += latency;
        if (u->lines_per_way == 2) {
            if (first > ~0ULL - 64) {
                address_overflow();
                goto done;
            }
            if (access_through(m, m->bounds, first + 64, 0, &latency) < 0)
                goto done;
            *check_latency += latency;
        }
        u->lines_loaded += u->lines_per_way;
        hit = way_hit(u, pac, way, addr, addr33, not_bit32);
        if (hit < 0)
            goto done;
        if (hit) {
            found_way = way;
            break;
        }
        count++;
        if (count >= ways)
            break;
        way++;
        if (way == ways)
            way = 0;
    }
    u->lines += visits * u->lines_per_way;
    if (u->observe != Py_None) {
        PyObject *lines = PyLong_FromLongLong(visits * u->lines_per_way), *r;
        if (lines == NULL)
            goto done;
        r = PyObject_CallOneArg(u->observe, lines);
        Py_DECREF(lines);
        if (r == NULL)
            goto done;
        Py_DECREF(r);
    }
    if (found_way < 0) {
        u->faults++;
        *failed = 1;
    }
    else if (u->bwb_table != Py_None && bwb_update(u, tag_obj, found_way) < 0)
        goto done;
    status = 0;
done:
    Py_XDECREF(tag_obj);
    Py_DECREF(pac_obj);
    return status;
}

/* bndstr/bndclr through the Python MCU: fn(pointer) or fn(pointer, size)
 * when `size` is given; the op's ValidationResult sets *failed and
 * *latency; the HBT is re-read afterwards. */
static int
table_op(MCU *u, PyObject *fn, u64 pointer, const u64 *size, int *failed,
         double *latency)
{
    PyObject *outcome, *field, *pointer_obj, *size_obj = NULL;
    int ok;
    pointer_obj = PyLong_FromUnsignedLongLong(pointer);
    if (pointer_obj == NULL)
        return -1;
    if (size != NULL && (size_obj = PyLong_FromUnsignedLongLong(*size)) == NULL) {
        Py_DECREF(pointer_obj);
        return -1;
    }
    outcome = size_obj == NULL
                  ? PyObject_CallOneArg(fn, pointer_obj)
                  : PyObject_CallFunctionObjArgs(fn, pointer_obj, size_obj, NULL);
    Py_DECREF(pointer_obj);
    Py_XDECREF(size_obj);
    if (outcome == NULL)
        return -1;
    field = PyObject_GetAttr(outcome, s_ok);
    ok = field == NULL ? -1 : PyObject_IsTrue(field);
    Py_XDECREF(field);
    if (ok >= 0) {
        field = PyObject_GetAttr(outcome, s_latency);
        *latency = field == NULL ? -1.0 : PyFloat_AsDouble(field);
        if (field == NULL || (*latency == -1.0 && PyErr_Occurred()))
            ok = -1;
        Py_XDECREF(field);
    }
    Py_DECREF(outcome);
    if (ok < 0 || read_hbt(u) < 0)
        return -1;
    *failed = !ok;
    return 0;
}

/* ---------------------------------------------------------------- run */

static int
parse_level(PyObject *spec, Level *lv)
{
    Py_ssize_t nsets;
    memset(lv, 0, sizeof(*lv));
    if (!PyArg_ParseTuple(spec, "O!nind;a cache level is (sets, num_sets, "
                          "line_bits, assoc, hit_latency)",
                          &PyList_Type, &lv->sets, &nsets, &lv->bits,
                          &lv->assoc, &lv->latency))
        return -1;
    if (nsets < 1 || PyList_GET_SIZE(lv->sets) != nsets || lv->bits < 0 ||
        lv->bits > 63) {
        PyErr_SetString(PyExc_ValueError, "inconsistent cache geometry");
        return -1;
    }
    lv->nsets = (u64)nsets;
    return 0;
}

static PyObject *
level_counts(Level *lv)
{
    return Py_BuildValue("(KKKKK)", lv->accesses, lv->hits, lv->misses,
                         lv->evictions, lv->writebacks);
}

/* Acquire `value`'s buffer into *view: a C-contiguous, aligned array of
 * `itemsize`-byte items whose native format character is one of `formats`
 * (numpy's uint8 "B", uint64 "L"/"Q", int64 "l"/"q" or float64 "d"), `n` of
 * them unless n < 0, and writable if `writable`.  `what` names it in the
 * error. */
static int
acquire(PyObject *value, const char *what, Py_ssize_t n, Py_ssize_t itemsize,
        const char *formats, int writable, Py_buffer *view)
{
    const char *format;
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    view->obj = NULL;
    if (PyObject_GetBuffer(value, view, flags) < 0) {
        view->obj = NULL;
        return -1;
    }
    format = view->format == NULL ? "B" : view->format;
    if (*format == '@' || *format == '=')
        format++;
    if (view->itemsize != itemsize || (n >= 0 && view->len != n * itemsize) ||
        format[0] == '\0' || format[1] != '\0' || strchr(formats, format[0]) == NULL ||
        ((Py_uintptr_t)view->buf & (itemsize - 1)) != 0) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be an aligned array of %zd-byte items (format "
                     "one of \"%s\")",
                     what, itemsize, formats);
        PyBuffer_Release(view);
        view->obj = NULL;
        return -1;
    }
    return 0;
}

/* Acquire the program column `name`: 64-bit items, `n` of them unless n < 0. */
static int
column(PyObject *program, PyObject *name, Py_ssize_t n, const char *formats,
       Py_buffer *view)
{
    int status;
    PyObject *value = PyObject_GetAttr(program, name);
    view->obj = NULL;
    if (value == NULL)
        return -1;
    status = acquire(value, PyUnicode_AsUTF8(name), n, 8, formats, 0, view);
    Py_DECREF(value);
    return status;
}

static void
release_column(Py_buffer *view)
{
    if (view->obj != NULL)
        PyBuffer_Release(view);
    view->obj = NULL;
}

PyDoc_STRVAR(run_doc,
"run(program, core, memory, mcu) -> counters\n\n"
"Run the columns of `program` through the scoreboard.  `core` is\n"
"(fetch_step, frontend_depth, ring, rob, lq, sq, mcq, mcq_threshold,\n"
"penalty, penalty_discounted, va_mask); `memory` is (l1d, l1b or None,\n"
"l2, line_bytes, dram_latency) with each level (sets, num_sets,\n"
"line_bits, assoc, hit_latency); `mcu` is None or the tuple\n"
"repro/kernel/fast.py binds.  Returns (cycles, instructions,\n"
"mispredicts, mcq_stall, rob_stall, lsq_stall, faults, l1d, l1b, l2,\n"
"traffic, mcu) with each cache's (accesses, hits, misses, evictions,\n"
"writebacks), traffic (l1_l2_bytes, l2_dram_bytes, dram_accesses) and\n"
"mcu (checks, signed_checks, forwards, lines_accessed, faults,\n"
"lines_loaded, bwb_lookups, bwb_hits) or None.");

static PyObject *
fast_run(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *program, *core, *memory_spec, *mcu_spec;
    PyObject *l1d_spec, *l1b_spec, *l2_spec;
    PyObject *kinds_obj = NULL, *result = NULL;
    Py_buffer addresses_view = {NULL}, latencies_view = {NULL},
              offsets_view = {NULL}, distances_view = {NULL},
              sizes_view = {NULL};
    const unsigned char *kinds;
    const u64 *addresses, *sizes;
    const double *latencies;
    const long long *dep_offsets, *dep_distances;
    Py_ssize_t n, i, j, ring_size, rob_cap, lq_cap, sq_cap, mcq_cap;
    double fetch_step, frontend, mcq_threshold, penalty, penalty_discounted;
    u64 va_mask, ring_mask;
    Memory m;
    MCU u;
    int has_mcu;
    double *ring = NULL;
    Queue rob = {NULL}, lq = {NULL}, sq = {NULL}, mcq = {NULL};
    double fetch_time = 0.0, commit_cursor = 0.0, last_commit = 0.0,
           stall_until = 0.0, mcq_stall = 0.0, rob_stall = 0.0,
           lsq_stall = 0.0, port0 = 0.0, port1 = 0.0;
    u64 mispredicts = 0, faults = 0, retired = 0;

    if (!PyArg_ParseTuple(args, "OO!O!O:run", &program, &PyTuple_Type, &core,
                          &PyTuple_Type, &memory_spec, &mcu_spec))
        return NULL;
    if (!PyArg_ParseTuple(core, "ddnnnnndddO&;core is (fetch_step, "
                          "frontend_depth, ring, rob, lq, sq, mcq, "
                          "mcq_threshold, penalty, penalty_discounted, va_mask)",
                          &fetch_step, &frontend, &ring_size, &rob_cap, &lq_cap,
                          &sq_cap, &mcq_cap, &mcq_threshold, &penalty,
                          &penalty_discounted, u64_converter, &va_mask))
        return NULL;
    if (ring_size < 1 || (ring_size & (ring_size - 1))) {
        PyErr_SetString(PyExc_ValueError, "the completion ring must be a power of two");
        return NULL;
    }
    ring_mask = (u64)ring_size - 1;

    memset(&m, 0, sizeof(m));
    if (!PyArg_ParseTuple(memory_spec, "OOOKd;memory is (l1d, l1b, l2, "
                          "line_bytes, dram_latency)", &l1d_spec, &l1b_spec,
                          &l2_spec, &m.line_bytes, &m.dram_latency) ||
        parse_level(l1d_spec, &m.l1d) < 0 || parse_level(l2_spec, &m.l2) < 0)
        return NULL;
    m.bounds = &m.l1d;
    if (l1b_spec != Py_None) {
        if (parse_level(l1b_spec, &m.l1b) < 0)
            return NULL;
        m.bounds = &m.l1b;
    }

    memset(&u, 0, sizeof(u));
    has_mcu = mcu_spec != Py_None;
    if (has_mcu) {
        if (!PyArg_ParseTuple(mcu_spec, "OiO&iO&ppOdO!OOnpOpnnnOO;malformed MCU binding",
                              &u.hbt, &u.ahc_shift, u64_converter, &u.ahc_low,
                              &u.pac_shift, u64_converter, &u.pac_low,
                              &u.nonblocking, &u.forwarding, &u.migration_rows,
                              &u.check_base_latency, &PyDict_Type,
                              &u.recent_stores, &u.observe, &u.bwb_table,
                              &u.bwb_entries, &u.bwb_lru, &u.advance,
                              &u.compression, &u.slots_per_way, &u.lines_per_way,
                              &u.num_rows, &u.bounds_store, &u.bounds_clear))
            return NULL;
        if (u.ahc_shift < 0 || u.ahc_shift > 63 || u.pac_shift < 0 ||
            u.pac_shift > 63 || u.slots_per_way < 0 || u.lines_per_way < 1 ||
            u.num_rows < 1 ||
            (u.bwb_table != Py_None && !PyDict_Check(u.bwb_table))) {
            PyErr_SetString(PyExc_ValueError, "malformed MCU binding");
            return NULL;
        }
        u.way_shift = 6 + (int)u.lines_per_way - 1;
        if (read_hbt(&u) < 0)
            goto error;
    }

    kinds_obj = PyObject_GetAttr(program, s_kinds);
    if (kinds_obj == NULL)
        goto error;
    if (!PyBytes_Check(kinds_obj)) {
        PyErr_SetString(PyExc_TypeError, "program kinds must be bytes");
        goto error;
    }
    kinds = (const unsigned char *)PyBytes_AS_STRING(kinds_obj);
    n = PyBytes_GET_SIZE(kinds_obj);
    if (column(program, s_addresses, n, "LQ", &addresses_view) < 0 ||
        column(program, s_latencies, n, "d", &latencies_view) < 0 ||
        column(program, s_dep_offsets, n + 1, "lq", &offsets_view) < 0 ||
        column(program, s_dep_distances, -1, "lq", &distances_view) < 0 ||
        column(program, s_sizes, n, "LQ", &sizes_view) < 0)
        goto error;
    addresses = (const u64 *)addresses_view.buf;
    latencies = (const double *)latencies_view.buf;
    dep_offsets = (const long long *)offsets_view.buf;
    dep_distances = (const long long *)distances_view.buf;
    sizes = (const u64 *)sizes_view.buf;
    /* Every row of the CSR dependencies must lie inside the flat array. */
    if (dep_offsets[0] != 0 || dep_offsets[n] != distances_view.len / 8) {
        PyErr_SetString(PyExc_ValueError, "malformed program dependencies");
        goto error;
    }
    for (i = 0; i < n; i++) {
        if (dep_offsets[i + 1] < dep_offsets[i]) {
            PyErr_SetString(PyExc_ValueError, "malformed program dependencies");
            goto error;
        }
    }

    ring = PyMem_New(double, ring_size);
    if (ring == NULL) {
        PyErr_NoMemory();
        goto error;
    }
    for (i = 0; i < ring_size; i++)
        ring[i] = 0.0;
    if (queue_init(&rob, rob_cap, n) < 0 || queue_init(&lq, lq_cap, n) < 0 ||
        queue_init(&sq, sq_cap, n) < 0 || queue_init(&mcq, mcq_cap, n) < 0)
        goto error;

    for (i = 0; i < n; i++) {
        int kind = kinds[i], enters_mcu, popped, failed;
        double head, ready, issue, completion, check_done, mcq_busy_until,
               latency, ready_commit, commit_time;
        u64 address = addresses[i];

        if (kind == 0) { /* trace marker */
            ring[i & ring_mask] = fetch_time;
            continue;
        }
        if ((i & 0xFFFF) == 0 && PyErr_CheckSignals() < 0)
            goto error;

        /* ---- fetch: bandwidth, branch refill, ROB occupancy ---------- */
        if (stall_until > fetch_time)
            fetch_time = stall_until;
        if ((popped = queue_pop_if_full(&rob, rob_cap, &head)) < 0)
            goto error;
        if (popped && head > fetch_time) {
            rob_stall += head - fetch_time;
            fetch_time = head;
        }
        fetch_time += fetch_step;

        /* ---- dependencies -------------------------------------------- */
        ready = fetch_time + frontend;
        for (j = (Py_ssize_t)dep_offsets[i]; j < (Py_ssize_t)dep_offsets[i + 1]; j++) {
            double t = ring[((u64)i - (u64)dep_distances[j]) & ring_mask];
            if (t > ready)
                ready = t;
        }

        /* ---- structural hazards at issue ----------------------------- */
        popped = 0;
        if (kind == 1)
            popped = queue_pop_if_full(&lq, lq_cap, &head);
        else if (kind == 2)
            popped = queue_pop_if_full(&sq, sq_cap, &head);
        if (popped < 0)
            goto error;
        if (popped && head > ready) {
            lsq_stall += head - ready;
            ready = head;
        }
        enters_mcu = has_mcu && (kind <= 2 || kind == 5 || kind == 6);
        if (enters_mcu) {
            if ((popped = queue_pop_if_full(&mcq, mcq_cap, &head)) < 0)
                goto error;
            if (popped && head > ready) {
                mcq_stall += head - ready;
                ready = head;
            }
        }
        issue = ready;

        /* ---- execute ------------------------------------------------- */
        if (kind == 1) {
            if (access_through(&m, &m.l1d, address & va_mask, 0, &latency) < 0)
                goto error;
            completion = issue + latency;
        }
        else if (kind == 2) {
            if (access_through(&m, &m.l1d, address & va_mask, 1, &latency) < 0)
                goto error;
            completion = issue + 1.0;
        }
        else if (kind == 3) { /* watchdog check µop: metadata record load */
            if (access_through(&m, &m.l1d, address, 0, &latency) < 0)
                goto error;
            completion = issue + latency;
        }
        else {
            latency = latencies[i];
            completion = issue + latency;
        }

        /* ---- bounds validation (MCU) --------------------------------- */
        check_done = issue;
        mcq_busy_until = 0.0;
        if (has_mcu && (kind == 5 || kind == 6)) {
            if (table_op(&u, kind == 5 ? u.bounds_store : u.bounds_clear,
                         address, kind == 5 ? &sizes[i] : NULL, &failed,
                         &latency) < 0)
                goto error;
            faults += failed;
            mcq_busy_until = issue + latency;
        }
        else if (has_mcu && kind <= 2 && address > va_mask) {
            /* MemoryCheckUnit.check_access (Fig. 6 + Fig. 8a). */
            double check_latency = 0.0, check_start;
            u64 ahc = (address >> u.ahc_shift) & u.ahc_low;
            u.checks++;
            if (ahc != 0) {
                if (check_signed(&m, &u, address, ahc, va_mask, &check_latency,
                                 &failed) < 0)
                    goto error;
                faults += failed;
            }
            /* Delayed retirement behind the MCU's two check ports (applies
             * to every validated load/store, signed or not). */
            if (port0 <= port1) {
                check_start = issue > port0 ? issue : port0;
                check_done = check_start + check_latency;
                port0 = check_done;
            }
            else {
                check_start = issue > port1 ? issue : port1;
                check_done = check_start + check_latency;
                port1 = check_done;
            }
        }

        /* ---- commit (in-order, width per cycle, delayed retirement) -- */
        ready_commit = completion > check_done ? completion : check_done;
        if (ready_commit < last_commit)
            ready_commit = last_commit;
        commit_cursor += fetch_step;
        commit_time = ready_commit > commit_cursor ? ready_commit : commit_cursor;
        commit_cursor = commit_time;
        last_commit = commit_time;

        queue_append(&rob, commit_time);
        if (kind == 1)
            queue_append(&lq, commit_time);
        else if (kind == 2)
            queue_append(&sq, commit_time);
        if (enters_mcu)
            queue_append(&mcq, commit_time > mcq_busy_until ? commit_time
                                                            : mcq_busy_until);

        /* ---- branch resolution --------------------------------------- */
        if (kind == 4) {
            double effective_penalty = penalty, resolve;
            mispredicts++;
            if (has_mcu) {
                while (mcq.len && mcq.buf[mcq.head] <= fetch_time)
                    queue_popleft(&mcq);
                if ((double)mcq.len >= mcq_threshold)
                    effective_penalty = penalty_discounted;
            }
            resolve = completion + effective_penalty;
            if (resolve > stall_until)
                stall_until = resolve;
        }

        ring[i & ring_mask] = completion;
        retired++;
    }

    result = Py_BuildValue(
        "(dKKdddKNNN(KKK)N)", commit_cursor, retired, mispredicts, mcq_stall,
        rob_stall, lsq_stall, faults, level_counts(&m.l1d),
        l1b_spec == Py_None ? Py_NewRef(Py_None) : level_counts(&m.l1b),
        level_counts(&m.l2), m.l1_l2_bytes, m.l2_dram_bytes, m.dram_accesses,
        has_mcu ? Py_BuildValue("(KKKKKKKK)", u.checks, u.signed_checks,
                                u.forwards, u.lines, u.faults, u.lines_loaded,
                                u.bwb_lookups, u.bwb_hits)
                : Py_NewRef(Py_None));
error:
    release_table(&u);
    PyMem_Free(ring);
    PyMem_Free(rob.buf);
    PyMem_Free(lq.buf);
    PyMem_Free(sq.buf);
    PyMem_Free(mcq.buf);
    Py_XDECREF(kinds_obj);
    release_column(&addresses_view);
    release_column(&latencies_view);
    release_column(&offsets_view);
    release_column(&distances_view);
    release_column(&sizes_view);
    return result;
}

/* ---------------------------------------------------- trace generation */

/*
 * The loops of repro.workloads.generator.generate_trace (the gshare
 * warm-up, the preamble draws and the window) and of
 * repro.compiler.base.dependency_draws, run on the caller's own
 * random.Random stream.  Each entry point takes the
 * internal state of rng.getstate() (624 words and an index) and returns the
 * advanced state with its result; repro.kernel.fast.on_stream hands it back
 * with rng.setstate.  The draws are CPython's (Modules/_randommodule.c and
 * Lib/random.py): random() is (a >> 5, b >> 6) over 2**53, randrange(n) is
 * getrandbits(n.bit_length()) retried while the value is >= n, and choices()
 * with cum_weights bisects random() * total.  Every draw is taken in the
 * order, and under the conditions, of the Python loops, which stay as the
 * reference (tests/test_generator_native.py).
 */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int index;
} Twister;

static int
twister_load(PyObject *state, Twister *tw)
{
    Py_ssize_t i;
    unsigned long word;
    long index;
    if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != MT_N + 1) {
        PyErr_SetString(PyExc_ValueError,
                        "a Mersenne Twister state is a tuple of 625 ints");
        return -1;
    }
    for (i = 0; i < MT_N; i++) {
        word = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(state, i));
        if (word == (unsigned long)-1 && PyErr_Occurred())
            return -1;
        tw->mt[i] = (uint32_t)word;
    }
    index = PyLong_AsLong(PyTuple_GET_ITEM(state, MT_N));
    if (index == -1 && PyErr_Occurred())
        return -1;
    if (index < 0 || index > MT_N) {
        PyErr_SetString(PyExc_ValueError, "Mersenne Twister index out of range");
        return -1;
    }
    tw->index = (int)index;
    return 0;
}

static PyObject *
twister_dump(const Twister *tw)
{
    Py_ssize_t i;
    PyObject *value, *state = PyTuple_New(MT_N + 1);
    if (state == NULL)
        return NULL;
    for (i = 0; i <= MT_N; i++) {
        value = i < MT_N ? PyLong_FromUnsignedLong(tw->mt[i])
                         : PyLong_FromLong(tw->index);
        if (value == NULL) {
            Py_DECREF(state);
            return NULL;
        }
        PyTuple_SET_ITEM(state, i, value);
    }
    return state;
}

/* Regenerate the 624 words (the refill half of genrand_uint32). */
static void
twister_refill(Twister *tw)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y, *mt = tw->mt;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
    tw->index = 0;
}

/* genrand_uint32 */
static inline uint32_t
twister_next(Twister *tw)
{
    uint32_t y;
    if (tw->index >= MT_N)
        twister_refill(tw);
    y = tw->mt[tw->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random(): 53 random bits over 2**53. */
static inline double
twister_random(Twister *tw)
{
    uint32_t a = twister_next(tw) >> 5, b = twister_next(tw) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* getrandbits(k) for 1 <= k <= 64: 32-bit words, least significant first,
 * the most significant one cut to its top bits. */
static inline u64
twister_bits(Twister *tw, int k)
{
    u64 low;
    if (k <= 32)
        return twister_next(tw) >> (32 - k);
    low = twister_next(tw);
    return low | (u64)(twister_next(tw) >> (64 - k)) << 32;
}

/* randrange(n) for 1 <= n < 2**63. */
static inline u64
twister_below(Twister *tw, u64 n)
{
    int k = 64 - __builtin_clzll(n);
    u64 value = twister_bits(tw, k);
    while (value >= n)
        value = twister_bits(tw, k);
    return value;
}

/* ------------------------------------------------------------- gshare */

/* A repro.cpu.branch.GShareBranchPredictor, trained in place: its
 * `_table` bytearray through the buffer protocol, its history and
 * counters copied in and written back by gshare_store. */
typedef struct {
    Py_buffer table;
    u64 table_mask, history, history_mask;
    long long predictions, mispredictions;
} GShare;

static int
gshare_bind(PyObject *predictor, GShare *g)
{
    long long table_bits, history_bits, history;
    PyObject *table;
    g->table.obj = NULL;
    if (read_ll(predictor, s_table_bits, &table_bits) < 0 ||
        read_ll(predictor, s_history_bits, &history_bits) < 0 ||
        read_ll(predictor, s_history, &history) < 0 ||
        read_ll(predictor, s_predictions, &g->predictions) < 0 ||
        read_ll(predictor, s_mispredictions, &g->mispredictions) < 0)
        return -1;
    if (table_bits < 2 || table_bits > 30 || history_bits < 1 ||
        history_bits > 62 || history < 0) {
        PyErr_SetString(PyExc_ValueError, "unsupported predictor geometry");
        return -1;
    }
    table = PyObject_GetAttr(predictor, s_table);
    if (table == NULL)
        return -1;
    if (PyObject_GetBuffer(table, &g->table, PyBUF_WRITABLE) < 0) {
        g->table.obj = NULL;
        Py_DECREF(table);
        return -1;
    }
    Py_DECREF(table);
    if (g->table.len != (Py_ssize_t)1 << table_bits) {
        PyErr_SetString(PyExc_ValueError, "predictor table size mismatch");
        PyBuffer_Release(&g->table);
        g->table.obj = NULL;
        return -1;
    }
    g->table_mask = ((u64)1 << table_bits) - 1;
    g->history_mask = ((u64)1 << history_bits) - 1;
    g->history = (u64)history;
    return 0;
}

/* predict_and_update: 1 when the prediction was wrong. */
static int
gshare_step(GShare *g, u64 pc, int taken)
{
    unsigned char *counter =
        (unsigned char *)g->table.buf + ((pc ^ g->history) & g->table_mask);
    int mispredicted = (*counter >= 2) != taken;
    g->predictions++;
    if (taken && *counter < 3)
        ++*counter;
    else if (!taken && *counter > 0)
        --*counter;
    g->history = ((g->history << 1) | (u64)taken) & g->history_mask;
    g->mispredictions += mispredicted;
    return mispredicted;
}

static int
write_ll(PyObject *obj, PyObject *name, long long v)
{
    int status;
    PyObject *value = PyLong_FromLongLong(v);
    if (value == NULL)
        return -1;
    status = PyObject_SetAttr(obj, name, value);
    Py_DECREF(value);
    return status;
}

/* Release the table and, unless `predictor` is NULL, write the history
 * and counters back. */
static int
gshare_store(GShare *g, PyObject *predictor)
{
    if (g->table.obj != NULL)
        PyBuffer_Release(&g->table);
    g->table.obj = NULL;
    if (predictor == NULL)
        return 0;
    if (write_ll(predictor, s_history, (long long)g->history) < 0 ||
        write_ll(predictor, s_predictions, g->predictions) < 0 ||
        write_ll(predictor, s_mispredictions, g->mispredictions) < 0)
        return -1;
    return 0;
}

/* The branch sites: their PCs and taken biases, as C arrays. */
typedef struct {
    Py_ssize_t n;
    u64 *pcs;
    double *bias;
} Sites;

static int
sites_load(PyObject *pcs_obj, PyObject *bias_obj, Sites *sites)
{
    PyObject *pcs = NULL, *bias = NULL;
    Py_ssize_t i;
    int status = -1;
    sites->pcs = NULL;
    sites->bias = NULL;
    pcs = PySequence_Fast(pcs_obj, "site PCs must be a sequence");
    bias = pcs == NULL ? NULL
                       : PySequence_Fast(bias_obj, "site biases must be a sequence");
    if (bias == NULL)
        goto done;
    sites->n = PySequence_Fast_GET_SIZE(pcs);
    if (sites->n < 1 || PySequence_Fast_GET_SIZE(bias) != sites->n) {
        PyErr_SetString(PyExc_ValueError,
                        "one bias per branch site, at least one site");
        goto done;
    }
    sites->pcs = PyMem_Malloc(sites->n * sizeof(u64));
    sites->bias = PyMem_Malloc(sites->n * sizeof(double));
    if (sites->pcs == NULL || sites->bias == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < sites->n; i++) {
        if (as_u64(PySequence_Fast_GET_ITEM(pcs, i), &sites->pcs[i]) < 0)
            goto done;
        sites->bias[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(bias, i));
        if (sites->bias[i] == -1.0 && PyErr_Occurred())
            goto done;
    }
    status = 0;
done:
    Py_XDECREF(pcs);
    Py_XDECREF(bias);
    return status;
}

static void
sites_free(Sites *sites)
{
    PyMem_Free(sites->pcs);
    PyMem_Free(sites->bias);
}

/* (state, result) for an entry point; steals `result`. */
static PyObject *
advanced(const Twister *tw, PyObject *result)
{
    PyObject *state, *pair;
    if (result == NULL)
        return NULL;
    state = twister_dump(tw);
    if (state == NULL) {
        Py_DECREF(result);
        return NULL;
    }
    pair = PyTuple_Pack(2, state, result);
    Py_DECREF(state);
    Py_DECREF(result);
    return pair;
}

PyDoc_STRVAR(warm_branches_doc,
"warm_branches(state, predictor, site_pcs, site_bias, count) -> (state, None)\n\n"
"Train `predictor` on `count` branches: each a site drawn with\n"
"randrange(len(site_pcs)) and an outcome random() < site_bias[site].");

static PyObject *
fast_warm_branches(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *state, *predictor, *pcs_obj, *bias_obj, *result = NULL;
    Py_ssize_t count, i;
    Twister tw;
    Sites sites = {0, NULL, NULL};
    GShare g;
    u64 site;
    g.table.obj = NULL;
    if (!PyArg_ParseTuple(args, "OOOOn", &state, &predictor, &pcs_obj,
                          &bias_obj, &count))
        return NULL;
    if (twister_load(state, &tw) < 0 ||
        sites_load(pcs_obj, bias_obj, &sites) < 0 || gshare_bind(predictor, &g) < 0)
        goto done;
    for (i = 0; i < count; i++) {
        site = twister_below(&tw, (u64)sites.n);
        gshare_step(&g, sites.pcs[site], twister_random(&tw) < sites.bias[site]);
    }
    if (gshare_store(&g, predictor) == 0)
        result = advanced(&tw, Py_NewRef(Py_None));
done:
    gshare_store(&g, NULL);
    sites_free(&sites);
    return result;
}

/* The event tag codes and flag bits: repro.workloads.generator's TAG_*
 * and FLAG_*. */
enum {
    TAG_ALU, TAG_FALU, TAG_LD, TAG_ST, TAG_ULD, TAG_UST,
    TAG_BR, TAG_MALLOC, TAG_FREE, TAG_CALL, TAG_RET, TAG_PTR_ARITH
};
enum { FLAG_PTR = 1, FLAG_CHASE = 2, FLAG_MISPREDICTED = 4, FLAG_GLOBALS = 8 };

/* The event columns trace_window writes, in WorkloadTrace's order, and how
 * many events are written. */
typedef struct {
    unsigned char *tags;
    long long *objs, *offsets, *sizes;
    unsigned char *flags;
    Py_ssize_t count;
} Events;

static inline void
event(Events *e, int tag, long long obj, long long offset, long long size, int flags)
{
    Py_ssize_t i = e->count++;
    e->tags[i] = (unsigned char)tag;
    e->objs[i] = obj;
    e->offsets[i] = offset;
    e->sizes[i] = size;
    e->flags[i] = (unsigned char)flags;
}

/* The size classes and their cumulative weights: choices()'s bisect. */
typedef struct {
    Py_ssize_t n;
    double *cum;
    long long *size;
    double total;
} SizeTable;

static int
size_table_load(PyObject *classes_obj, PyObject *cum_obj, SizeTable *t)
{
    PyObject *classes, *cum = NULL;
    Py_ssize_t i;
    int status = -1;
    classes = PySequence_Fast(classes_obj, "size classes must be a sequence");
    if (classes == NULL)
        return -1;
    cum = PySequence_Fast(cum_obj, "cum_weights must be a sequence");
    if (cum == NULL)
        goto done;
    t->n = PySequence_Fast_GET_SIZE(classes);
    if (t->n < 1 || PySequence_Fast_GET_SIZE(cum) != t->n) {
        PyErr_SetString(PyExc_ValueError,
                        "one cumulative weight per size class, at least one class");
        goto done;
    }
    t->cum = PyMem_Malloc(t->n * sizeof(double));
    t->size = PyMem_Malloc(t->n * sizeof(long long));
    if (t->cum == NULL || t->size == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < t->n; i++) {
        t->cum[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(cum, i));
        if (t->cum[i] == -1.0 && PyErr_Occurred())
            goto done;
        t->size[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(classes, i));
        if (t->size[i] == -1 && PyErr_Occurred())
            goto done;
    }
    t->total = t->cum[t->n - 1] + 0.0;
    if (!(t->total > 0.0)) {
        PyErr_SetString(PyExc_ValueError,
                        "Total of weights must be greater than zero");
        goto done;
    }
    status = 0;
done:
    Py_DECREF(classes);
    Py_XDECREF(cum);
    return status;
}

/* choices(classes, cum_weights=cum)[0]: the index of the drawn class. */
static inline Py_ssize_t
size_table_pick(const SizeTable *t, Twister *tw)
{
    double x = twister_random(tw) * t->total;
    Py_ssize_t lo = 0, hi = t->n - 1, mid;
    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (x < t->cum[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

static void
size_table_free(SizeTable *t)
{
    PyMem_Free(t->cum);
    PyMem_Free(t->size);
}

PyDoc_STRVAR(preamble_doc,
"preamble(state, size_classes, cum_weights, sizes) -> (state, None)\n\n"
"The live set at window start: fills the int64 array `sizes` with\n"
"choices(size_classes, cum_weights=cum_weights, k=len(sizes)).");

static PyObject *
fast_preamble(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *state, *classes_obj, *cum_obj, *sizes_obj, *result = NULL;
    Py_buffer view = {NULL};
    Py_ssize_t i;
    long long *sizes;
    Twister tw;
    SizeTable table = {0, NULL, NULL, 0.0};
    if (!PyArg_ParseTuple(args, "OOOO", &state, &classes_obj, &cum_obj, &sizes_obj))
        return NULL;
    if (acquire(sizes_obj, "sizes", -1, 8, "lq", 1, &view) < 0)
        return NULL;
    if (twister_load(state, &tw) < 0 ||
        size_table_load(classes_obj, cum_obj, &table) < 0)
        goto done;
    sizes = view.buf;
    for (i = 0; i < view.len / 8; i++)
        sizes[i] = table.size[size_table_pick(&table, &tw)];
    result = advanced(&tw, Py_NewRef(Py_None));
done:
    size_table_free(&table);
    release_column(&view);
    return result;
}

/* The window's probabilities, in WindowDice's field order. */
typedef struct {
    double mem, branch, falu, malloc, call, ptr_arith, store_ratio, heap_frac,
        burst_prob, hot_access_prob, seq_frac, ptr_frac, chase_frac,
        free_recency;
} Dice;

PyDoc_STRVAR(trace_window_doc,
"trace_window(state, predictor, site_pcs, site_bias, dice, size_classes,\n"
"             cum_weights, hot_pool, preamble_sizes, instructions,\n"
"             target_live, tags, objs, offsets, sizes, flags)\n"
"    -> (state, count)\n\n"
"The window loop of generate_trace: `instructions` draws of the event\n"
"mix, written from index 0 into the event columns (uint8 tags and flags,\n"
"int64 objs, offsets and sizes, 2 * instructions entries each), of which\n"
"`count` are used.  `dice` is a WindowDice; `hot_pool` (int64) holds\n"
"preamble ids, and `preamble_sizes` (int64) the sizes of the preamble ids\n"
"0..n-1; `predictor` is trained in place.");

static PyObject *
fast_trace_window(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *state, *predictor, *pcs_obj, *bias_obj, *dice_obj, *classes_obj,
        *cum_obj, *hot_obj, *preamble_obj, *columns[5];
    PyObject *result = NULL;
    Py_buffer preamble_view = {NULL}, hot_view = {NULL};
    Py_ssize_t instructions, n_pre, cap, pos, i, k, step;
    long long target_live, *sizes = NULL, *cursors = NULL;
    Py_ssize_t *live = NULL, *live_pos = NULL, *allocated = NULL;
    const long long *hot;
    Py_ssize_t live_len, n_alloc = 0, alloc_head = 0, hot_len = 0;
    Py_ssize_t next_obj, current = -1, call_depth = 0, oid, victim, candidate;
    Py_ssize_t back, lim;
    char *freed = NULL;
    double r;
    long long span, offset, size;
    int is_store, flags;
    u64 site;
    Twister tw;
    Sites sites = {0, NULL, NULL};
    SizeTable table = {0, NULL, NULL, 0.0};
    GShare g;
    Dice p;
    Events e = {NULL, NULL, NULL, NULL, NULL, 0};
    Py_buffer views[5] = {{NULL}, {NULL}, {NULL}, {NULL}, {NULL}};
    static const char *names[5] = {"tags", "objs", "offsets", "sizes", "flags"};

    g.table.obj = NULL;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOnLOOOOO", &state, &predictor, &pcs_obj,
                          &bias_obj, &dice_obj, &classes_obj, &cum_obj,
                          &hot_obj, &preamble_obj, &instructions, &target_live,
                          &columns[0], &columns[1], &columns[2], &columns[3],
                          &columns[4]))
        return NULL;
    if (!PyTuple_Check(dice_obj) ||
        !PyArg_ParseTuple(dice_obj, "dddddddddddddd;dice must be 14 floats",
                          &p.mem, &p.branch, &p.falu, &p.malloc, &p.call,
                          &p.ptr_arith, &p.store_ratio, &p.heap_frac,
                          &p.burst_prob, &p.hot_access_prob, &p.seq_frac,
                          &p.ptr_frac, &p.chase_frac, &p.free_recency)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "dice must be a tuple");
        return NULL;
    }
    if (instructions < 0) {
        PyErr_SetString(PyExc_ValueError, "instructions must be >= 0");
        return NULL;
    }
    for (k = 0; k < 5; k++)
        if (acquire(columns[k], names[k], 2 * instructions, k % 4 ? 8 : 1,
                    k % 4 ? "lq" : "B", 1, &views[k]) < 0)
            goto done;
    e.tags = views[0].buf;
    e.objs = views[1].buf;
    e.offsets = views[2].buf;
    e.sizes = views[3].buf;
    e.flags = views[4].buf;
    if (acquire(preamble_obj, "preamble_sizes", -1, 8, "lq", 0, &preamble_view) < 0 ||
        twister_load(state, &tw) < 0 || sites_load(pcs_obj, bias_obj, &sites) < 0 ||
        size_table_load(classes_obj, cum_obj, &table) < 0)
        goto done;

    /* Every object id below cap: the preamble's, then one per window step. */
    n_pre = preamble_view.len / 8;
    cap = n_pre + instructions;
    sizes = PyMem_Malloc((cap + 1) * sizeof(long long));
    cursors = PyMem_Calloc(cap + 1, sizeof(long long));
    freed = PyMem_Calloc(cap + 1, 1);
    live = PyMem_Malloc((cap + 1) * sizeof(Py_ssize_t));
    live_pos = PyMem_Malloc((cap + 1) * sizeof(Py_ssize_t));
    allocated = PyMem_Malloc((instructions + 1) * sizeof(Py_ssize_t));
    if (sizes == NULL || cursors == NULL || freed == NULL || live == NULL ||
        live_pos == NULL || allocated == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(sizes, preamble_view.buf, n_pre * sizeof(long long));
    for (i = 0; i < n_pre; i++) {
        live[i] = i;
        live_pos[i] = i;
    }
    live_len = n_pre;
    next_obj = n_pre;

    if (acquire(hot_obj, "hot_pool", -1, 8, "lq", 0, &hot_view) < 0)
        goto done;
    hot = hot_view.buf;
    hot_len = hot_view.len / 8;
    for (i = 0; i < hot_len; i++) {
        if (hot[i] < 0 || hot[i] >= n_pre) {
            PyErr_SetString(PyExc_ValueError, "the hot pool must hold preamble ids");
            goto done;
        }
    }

    if (gshare_bind(predictor, &g) < 0)
        goto done;

    for (step = 0; step < instructions; step++) {
        r = twister_random(&tw);

        /* Low-rate events piggyback on the main draw. */
        if (twister_random(&tw) < p.malloc && live_len) {
            k = size_table_pick(&table, &tw);
            oid = next_obj++;
            sizes[oid] = table.size[k];
            event(&e, TAG_MALLOC, oid, 0, sizes[oid], 0);
            live_pos[oid] = live_len;
            live[live_len++] = oid;
            allocated[n_alloc++] = oid;
            current = oid;
            if (live_len > target_live && live_len > 1) {
                victim = -1;
                if (twister_random(&tw) < p.free_recency) {
                    lim = n_alloc < 9 ? n_alloc : 9;
                    for (back = 2; back <= lim; back++) {
                        if (!freed[allocated[n_alloc - back]]) {
                            victim = allocated[n_alloc - back];
                            break;
                        }
                    }
                }
                else {
                    while (alloc_head < n_alloc) {
                        oid = allocated[alloc_head++];
                        if (!freed[oid]) {
                            victim = oid;
                            break;
                        }
                    }
                }
                if (victim < 0)
                    victim = live[twister_below(&tw, (u64)live_len)];
                if (live_len > 1 && live_pos[victim] >= 0) {
                    /* O(1) swap-remove from the live list. */
                    pos = live_pos[victim];
                    live_pos[victim] = -1;
                    oid = live[--live_len];
                    if (oid != victim) {
                        live[pos] = oid;
                        live_pos[oid] = pos;
                    }
                    freed[victim] = 1;
                    event(&e, TAG_FREE, victim, 0, 0, 0);
                }
            }
            continue;
        }

        if (twister_random(&tw) < p.call) {
            if (call_depth > 0 && twister_random(&tw) < 0.5) {
                event(&e, TAG_RET, 0, 0, 0, 0);
                call_depth--;
            }
            else {
                event(&e, TAG_CALL, 0, 0, 0, 0);
                call_depth++;
            }
            continue;
        }

        if (twister_random(&tw) < p.ptr_arith) {
            event(&e, TAG_PTR_ARITH, 0, 0, 0, 0);
            continue;
        }

        if (r < p.mem) {
            is_store = twister_random(&tw) < p.store_ratio;
            if (twister_random(&tw) < p.heap_frac && live_len) {
                /* pick_object: burst locality, then the hot pool. */
                if (current >= 0 && !freed[current] &&
                    twister_random(&tw) < p.burst_prob) {
                    oid = current;
                }
                else {
                    oid = -1;
                    if (p.hot_access_prob > twister_random(&tw) && hot_len) {
                        candidate = hot[twister_below(&tw, (u64)hot_len)];
                        if (!freed[candidate])
                            oid = current = candidate;
                    }
                    if (oid < 0)
                        oid = current = live[twister_below(&tw, (u64)live_len)];
                }
                /* pick_offset */
                size = sizes[oid];
                span = size - 8 > 0 ? size - 8 : 0;
                if (span == 0)
                    offset = 0;
                else if (twister_random(&tw) < p.seq_frac) {
                    offset = cursors[oid];
                    cursors[oid] = (offset + 8) % (span + 1);
                }
                else
                    offset = 8 * (long long)twister_below(&tw, (u64)(span + 8) / 8);
                flags = twister_random(&tw) < p.ptr_frac ? FLAG_PTR : 0;
                if (is_store)
                    event(&e, TAG_ST, oid, offset, 0, flags);
                else {
                    if (twister_random(&tw) < p.chase_frac)
                        flags |= FLAG_CHASE;
                    event(&e, TAG_LD, oid, offset, 0, flags);
                }
            }
            else {
                /* stack vs globals */
                flags = twister_random(&tw) < 0.8 ? 0 : FLAG_GLOBALS;
                offset = 8 * (long long)twister_below(&tw, flags ? 32768 : 512);
                event(&e, is_store ? TAG_UST : TAG_ULD, 0, offset, 0, flags);
            }
        }
        else if (r < p.branch) {
            site = twister_below(&tw, (u64)sites.n);
            flags = gshare_step(&g, sites.pcs[site],
                                twister_random(&tw) < sites.bias[site])
                        ? FLAG_MISPREDICTED
                        : 0;
            event(&e, TAG_BR, 0, 0, 0, flags);
        }
        else
            event(&e, r < p.falu ? TAG_FALU : TAG_ALU, 0, 0, 0, 0);
    }

    if (gshare_store(&g, predictor) == 0)
        result = advanced(&tw, PyLong_FromSsize_t(e.count));
done:
    gshare_store(&g, NULL);
    sites_free(&sites);
    size_table_free(&table);
    for (k = 0; k < 5; k++)
        release_column(&views[k]);
    release_column(&preamble_view);
    release_column(&hot_view);
    PyMem_Free(sizes);
    PyMem_Free(cursors);
    PyMem_Free(freed);
    PyMem_Free(live);
    PyMem_Free(live_pos);
    PyMem_Free(allocated);
    return result;
}

PyDoc_STRVAR(dependency_draws_doc,
"dependency_draws(state, dep_prob, ilp_distance, drawn) -> (state, None)\n\n"
"Fill the int64 array `drawn` with dependency draws: 1 +\n"
"randrange(ilp_distance) where random() < dep_prob, else 0;\n"
"1 <= ilp_distance < 2**63.");

static PyObject *
fast_dependency_draws(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *state, *drawn_obj, *result = NULL;
    Py_buffer view = {NULL};
    Py_ssize_t i;
    long long *drawn;
    double dep_prob;
    u64 distance;
    Twister tw;
    if (!PyArg_ParseTuple(args, "OdO&O", &state, &dep_prob, u64_converter,
                          &distance, &drawn_obj))
        return NULL;
    if (distance < 1 || distance >> 63) {
        PyErr_SetString(PyExc_ValueError, "ilp_distance must be in [1, 2**63)");
        return NULL;
    }
    if (acquire(drawn_obj, "drawn", -1, 8, "lq", 1, &view) < 0)
        return NULL;
    if (twister_load(state, &tw) == 0) {
        drawn = view.buf;
        for (i = 0; i < view.len / 8; i++)
            drawn[i] = twister_random(&tw) < dep_prob
                           ? (long long)(1 + twister_below(&tw, distance))
                           : 0;
        result = advanced(&tw, Py_NewRef(Py_None));
    }
    release_column(&view);
    return result;
}

static PyMethodDef fast_methods[] = {
    {"run", fast_run, METH_VARARGS, run_doc},
    {"warm_branches", fast_warm_branches, METH_VARARGS, warm_branches_doc},
    {"preamble", fast_preamble, METH_VARARGS, preamble_doc},
    {"trace_window", fast_trace_window, METH_VARARGS, trace_window_doc},
    {"dependency_draws", fast_dependency_draws, METH_VARARGS, dependency_draws_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fast_module = {
    PyModuleDef_HEAD_INIT, "_fast",
    "The fast simulation kernel and trace generation loops "
    "(see repro/kernel/fast.py).", -1, fast_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__fast(void)
{
    PyObject *errors;
    struct { PyObject **slot; const char *name; } names[] = {
        {&s_ways, "ways"}, {&s_base, "_base"}, {&s_resizing, "_resizing"},
        {&s_old_base, "_old_base"}, {&s_old_ways, "_old_ways"},
        {&s_row_ptr, "_row_ptr"}, {&s_table, "_table"}, {&s_ok, "ok"},
        {&s_latency, "latency"},
        {&s_kinds, "kinds"}, {&s_addresses, "addresses"},
        {&s_latencies, "latencies"}, {&s_dep_offsets, "dep_offsets"},
        {&s_dep_distances, "dep_distances"}, {&s_sizes, "sizes"},
        {&s_move_to_end, "move_to_end"}, {&s_popitem, "popitem"},
        {&s_table_bits, "table_bits"}, {&s_history_bits, "history_bits"},
        {&s_history, "_history"}, {&s_predictions, "predictions"},
        {&s_mispredictions, "mispredictions"},
    };
    size_t k;
    for (k = 0; k < sizeof(names) / sizeof(names[0]); k++) {
        *names[k].slot = PyUnicode_InternFromString(names[k].name);
        if (*names[k].slot == NULL)
            return NULL;
    }
    errors = PyImport_ImportModule("repro.errors");
    if (errors == NULL)
        return NULL;
    SimulationError = PyObject_GetAttrString(errors, "SimulationError");
    Py_DECREF(errors);
    if (SimulationError == NULL)
        return NULL;
    return PyModule_Create(&fast_module);
}
