/*
 * The fast simulation kernel: the scoreboard loop of repro.cpu.pipeline
 * transcribed to C as a CPython extension.
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
    *s_popitem;

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

/* Acquire the program column `name` into *view: a C-contiguous buffer of
 * 64-bit items whose native format character is one of `formats` (numpy's
 * uint64 "L"/"Q", int64 "l"/"q" or float64 "d"), `n` of them unless n < 0. */
static int
column(PyObject *program, PyObject *name, Py_ssize_t n, const char *formats,
       Py_buffer *view)
{
    const char *format;
    PyObject *value = PyObject_GetAttr(program, name);
    view->obj = NULL;
    if (value == NULL)
        return -1;
    if (PyObject_GetBuffer(value, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        view->obj = NULL;
        Py_DECREF(value);
        return -1;
    }
    Py_DECREF(value);
    format = view->format == NULL ? "B" : view->format;
    if (*format == '@' || *format == '=')
        format++;
    if (view->itemsize != 8 || (n >= 0 && view->len != n * 8) ||
        format[0] == '\0' || format[1] != '\0' || strchr(formats, format[0]) == NULL ||
        ((Py_uintptr_t)view->buf & 7) != 0) {
        PyErr_Format(PyExc_ValueError,
                     "program column %U must be an aligned array of 64-bit "
                     "items (format one of \"%s\")",
                     name, formats);
        PyBuffer_Release(view);
        view->obj = NULL;
        return -1;
    }
    return 0;
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

static PyMethodDef fast_methods[] = {
    {"run", fast_run, METH_VARARGS, run_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fast_module = {
    PyModuleDef_HEAD_INIT, "_fast",
    "The fast simulation kernel (see repro/kernel/fast.py).", -1, fast_methods,
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
