/* Native code regions: the C twin of repro.codegen's reference layout
 * (_layout_reference), of CodeRegion's reference walk
 * (CodeRegion._walk_reference) and of the address models it draws
 * from.  Compiled together with the consume kernel (uarch/_kernel.c)
 * into one library by repro.uarch.native.
 *
 * Bit-identity contract: the walk draws the exact stream Python's
 * random.Random would.  The caller hands over the MT19937 state (624
 * words plus the index, as random.Random.getstate() lists them) and
 * sets it back afterwards; random() is genrand_res53, ported from
 * CPython's _randommodule.c.  Every x ** y of the reference is libm
 * pow() through a volatile pointer, so the compiler can never fold a
 * constant exponent (pow(x, 2.0) -> x * x rounds differently on a
 * fraction of draws).  Compile with -ffp-contract=off.
 *
 * The layout takes numpy's draws as they are and only does the
 * arithmetic on them (rint rounds half to even, like np.rint).
 *
 * Both only write caller-owned arrays: the region table; the rng state,
 * the model's parameters-plus-state vector, the four output columns and
 * the result slot.  They allocate nothing and never call back into
 * Python.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint32_t u32;
typedef double f64;

/* ---- op kinds (repro.trace) ---- */
#define OP_BLOCK 0
#define OP_BRANCH 1
#define OP_LOAD 2
#define OP_STORE 3

#define LINE 64

/* ================= MT19937 (CPython's random.Random) ================= */

#define MT_N 624
#define MT_M 397

/* mt[0..623] are the state words, mt[624] the index. */
static u32 mt_next(u32 *mt) {
    static const u32 mag01[2] = {0x0U, 0x9908b0dfU};
    u32 y;
    if (mt[MT_N] >= MT_N) {
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
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.Random.random(): genrand_res53 */
static f64 mt_random(u32 *mt) {
    u32 a = mt_next(mt) >> 5, b = mt_next(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Python's float ** for the non-negative bases the models raise. */
static f64 (*volatile libm_pow)(f64, f64) = pow;

static f64 py_pow(f64 x, f64 y) { return libm_pow(x, y); }

/* x ** 2 and x ** 3, the constant exponents of the walk and models */
static f64 py_square(f64 x) { return py_pow(x, 2.0); }

static f64 py_cube(f64 x) { return py_pow(x, 3.0); }

static f64 as_f64(i64 bits) {
    f64 d;
    memcpy(&d, &bits, sizeof d);
    return d;
}

/* Draw helpers, exported for the parity tests. */
void repro_mt_fill(u32 *mt, f64 *out, i64 n) {
    for (i64 k = 0; k < n; k++) out[k] = mt_random(mt);
}

f64 repro_py_pow(f64 x, f64 y) { return py_pow(x, y); }

f64 repro_py_square(f64 x) { return py_square(x); }

f64 repro_py_cube(f64 x) { return py_cube(x); }

/* ================= address models ================= */
/* Model vector layouts: mirror repro.codegen (M_*) and
 * repro.workloads.program.DataModel (D_*). */

enum { M_CONST, M_UNIFORM, M_HOT_COLD, M_RING, M_DATA };

/* M_CONST:    [kind, addr]
 * M_UNIFORM:  [kind, base, n_lines]
 * M_HOT_COLD: [kind, hot_base, hot_lines, cold_base, cold_lines]
 * M_RING:     [kind, base, n_lines, n, head, ring[RING_CAP]] */
#define RING_CAP 8
enum { R_BASE = 1, R_LINES, R_N, R_HEAD, R_RING };

enum {
    D_LIVE = 1, D_LIVE_N, D_STACK_BASE, D_STREAM_BASE, D_STREAM_SPAN,
    D_NATIVE_BASE, D_NATIVE_PAGES, D_HOT_PAGES, D_STACK_LINES,
    D_SLOT_LINES,
    /* float parameters, as IEEE-754 bit patterns */
    D_F_STREAM, D_F_REUSE, D_F_STACK, D_F_FRESH, D_F_CHASE, D_F_COLD,
    D_F_SKEW, D_F_STORE_STACK,
    /* state */
    D_CURSOR, D_RECENT_N, D_RECENT_HEAD, D_WARM_N, D_WARM_IDX,
    D_EPISODE_N, D_EPISODE_IDX,
    D_RECENT
};
#define RECENT_CAP 6
#define WARM_CAP 400
#define EPISODE_CAP 6000
#define D_WARM (D_RECENT + RECENT_CAP)
#define D_EPISODE (D_WARM + WARM_CAP)

static i64 data_stack(i64 *m, u32 *mt) {
    f64 r = mt_random(mt);
    return m[D_STACK_BASE] + (i64)(r * r * (f64)m[D_STACK_LINES]) * LINE;
}

static i64 data_native(i64 *m, u32 *mt, int uniform) {
    i64 page;
    if (uniform || mt_random(mt) < as_f64(m[D_F_COLD]))
        page = (i64)(mt_random(mt) * (f64)m[D_NATIVE_PAGES]);
    else
        page = (i64)(py_pow(mt_random(mt), as_f64(m[D_F_SKEW]))
                     * (f64)m[D_HOT_PAGES]);
    return m[D_NATIVE_BASE] + page * 4096
        + (i64)(mt_random(mt) * 64.0) * LINE;
}

static i64 data_hot_object(i64 *m, u32 *mt) {
    const i64 *live = (const i64 *)(intptr_t)m[D_LIVE];
    i64 n = m[D_LIVE_N];
    i64 base = live[(i64)((f64)n * py_pow(mt_random(mt),
                                          as_f64(m[D_F_SKEW])))];
    if (m[D_SLOT_LINES] > 1)
        base += (i64)(mt_random(mt) * (f64)m[D_SLOT_LINES]) * LINE;
    return base;
}

static i64 data_remember(i64 *m, i64 addr) {
    i64 n = m[D_RECENT_N];
    if (n < RECENT_CAP) {
        m[D_RECENT + n] = addr;
        m[D_RECENT_N] = n + 1;
    } else {
        i64 h = m[D_RECENT_HEAD];
        m[D_RECENT + h] = addr;
        m[D_RECENT_HEAD] = (h + 1) % RECENT_CAP;
    }
    n = m[D_WARM_N];
    if (n < WARM_CAP) {
        m[D_WARM + n] = addr;
        m[D_WARM_N] = n + 1;
    } else {
        m[D_WARM + m[D_WARM_IDX]] = addr;
        m[D_WARM_IDX] = (m[D_WARM_IDX] + 1) % WARM_CAP;
    }
    n = m[D_EPISODE_N];
    if (n < EPISODE_CAP) {
        m[D_EPISODE + n] = addr;
        m[D_EPISODE_N] = n + 1;
    } else {
        m[D_EPISODE + m[D_EPISODE_IDX]] = addr;
        m[D_EPISODE_IDX] = (m[D_EPISODE_IDX] + 1) % EPISODE_CAP;
    }
    return addr;
}

static i64 data_fresh_object(i64 *m, u32 *mt) {
    if (m[D_LIVE])
        return data_remember(m, data_hot_object(m, mt));
    return data_remember(m, data_native(m, mt, 0));
}

/* A recent-ring revisit, or -1 when the ring is empty or the draw
 * says no. */
static i64 data_recent(i64 *m, u32 *mt) {
    i64 n = m[D_RECENT_N];
    if (n && mt_random(mt) < as_f64(m[D_F_REUSE])) {
        i64 k = (i64)(mt_random(mt) * (f64)n);
        return m[D_RECENT + (m[D_RECENT_HEAD] + k) % RECENT_CAP];
    }
    return -1;
}

static i64 data_load(i64 *m, u32 *mt) {
    f64 stream = as_f64(m[D_F_STREAM]);
    if (stream != 0.0 && mt_random(mt) < stream) {
        m[D_CURSOR] = (m[D_CURSOR] + 8) % m[D_STREAM_SPAN];
        return m[D_STREAM_BASE] + m[D_CURSOR];
    }
    i64 addr = data_recent(m, mt);
    if (addr >= 0) return addr;
    if (mt_random(mt) < as_f64(m[D_F_STACK])) return data_stack(m, mt);
    if (mt_random(mt) >= as_f64(m[D_F_FRESH])) {
        if (m[D_WARM_N] && mt_random(mt) < 0.6)
            return m[D_WARM + (i64)(mt_random(mt) * (f64)m[D_WARM_N])];
        if (m[D_EPISODE_N])
            return m[D_EPISODE
                     + (i64)(mt_random(mt) * (f64)m[D_EPISODE_N])];
    }
    f64 r = mt_random(mt);
    f64 chase = as_f64(m[D_F_CHASE]);
    if (chase != 0.0 && r < chase) return data_native(m, mt, 1);
    return data_fresh_object(m, mt);
}

static i64 data_store(i64 *m, u32 *mt) {
    i64 addr = data_recent(m, mt);
    if (addr >= 0) return addr;
    if (mt_random(mt) < as_f64(m[D_F_STORE_STACK])) return data_stack(m, mt);
    return data_fresh_object(m, mt);
}

static i64 ring_lines(i64 *m, u32 *mt) {
    i64 n = m[R_N];
    if (n && mt_random(mt) < 0.90) {
        i64 k = (i64)(mt_random(mt) * (f64)n);
        return m[R_RING + (m[R_HEAD] + k) % RING_CAP];
    }
    i64 addr = m[R_BASE]
        + (i64)(py_square(mt_random(mt)) * (f64)m[R_LINES]) * LINE;
    if (n < RING_CAP) {
        m[R_RING + n] = addr;
        m[R_N] = n + 1;
    } else {
        m[R_RING + m[R_HEAD]] = addr;
        m[R_HEAD] = (m[R_HEAD] + 1) % RING_CAP;
    }
    return addr;
}

static i64 model_addr(i64 *m, u32 *mt, int store) {
    switch (m[0]) {
    case M_CONST:
        return m[1];
    case M_UNIFORM:
        return m[1] + (i64)(mt_random(mt) * (f64)m[2]) * LINE;
    case M_HOT_COLD:
        if (mt_random(mt) < 0.8)
            return m[1] + (i64)(py_square(mt_random(mt)) * (f64)m[2])
                * LINE;
        return m[3] + (i64)(mt_random(mt) * (f64)m[4]) * LINE;
    case M_RING:
        return ring_lines(m, mt);
    default:
        return store ? data_store(m, mt) : data_load(m, mt);
    }
}

/* ================= region layout ================= */

/* Region table (repro.codegen.CodeRegion._table): a header, then one
 * int64 column per block property (the taken biases as IEEE-754 bit
 * patterns) and the hot entry list. */
enum { T_N_BLOCKS, T_N_HOT, T_N_CHUNKS, T_CHUNK_BYTES, T_BURST, T_HDR };
enum { C_PC, C_OTHER, C_BYTES, C_LOADS, C_STORES, C_TRIPS, C_TARGET,
       C_BIAS, C_NCOLS };

static int cmp_i64(const void *a, const void *b) {
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

static i64 clamp_i64(i64 x, i64 lo, i64 hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}

/* Fill a region's table from its numpy draws, op for op as
 * repro.codegen._layout_reference computes it.  `draws` holds
 * normal[nb], jitter[2 nb] (loads, stores), coins[4 nb] (bias, hard
 * branch, hard bias, loop body), expo[nb] and hot[h]; `tab` has room
 * for T_HDR + C_NCOLS * nb + h.  Returns the hot entry count. */
i64 repro_layout(i64 nb, i64 h, i64 base, i64 seed, i64 n_chunks,
                 i64 chunk_bytes, f64 load_frac, f64 store_frac,
                 f64 bytes_per_instr, f64 taken_bias, f64 hard_frac,
                 f64 loop_frac, const f64 *draws, i64 *tab) {
    const f64 *normal = draws, *jitter = draws + nb,
        *coins = draws + 3 * nb, *expo = draws + 7 * nb,
        *hot_draw = draws + 8 * nb;
    i64 *pc = tab + T_HDR + C_PC * nb, *other = tab + T_HDR + C_OTHER * nb,
        *n_bytes = tab + T_HDR + C_BYTES * nb,
        *loads = tab + T_HDR + C_LOADS * nb,
        *stores = tab + T_HDR + C_STORES * nb,
        *trips = tab + T_HDR + C_TRIPS * nb,
        *target = tab + T_HDR + C_TARGET * nb,
        *bias = tab + T_HDR + C_BIAS * nb, *hot = tab + T_HDR + C_NCOLS * nb;
    i64 burst = 0, at = base, n_hot = 0;
    for (i64 i = 0; i < nb; i++) {
        i64 total = (i64)rint(normal[i]);
        if (total < 2) total = 2;
        loads[i] = clamp_i64((i64)rint((f64)total * load_frac + jitter[i]),
                             0, total - 1);
        stores[i] = clamp_i64(
            (i64)rint((f64)total * store_frac + jitter[nb + i]),
            0, total - 1 - loads[i]);
        other[i] = total - 1 - loads[i] - stores[i];
        if (other[i] < 0) other[i] = 0;
        n_bytes[i] = (i64)rint((f64)total * bytes_per_instr);
        if (n_bytes[i] < 8) n_bytes[i] = 8;
        f64 b = coins[i] < taken_bias ? 0.97 : 0.03;
        if (coins[nb + i] < hard_frac) b = 0.25 + coins[2 * nb + i] * 0.5;
        b = b < 0.02 ? 0.02 : (b > 0.98 ? 0.98 : b);
        memcpy(&bias[i], &b, sizeof b);
        trips[i] = 1;
        if (coins[3 * nb + i] < loop_frac) {
            f64 t = rint(expo[i]);
            trips[i] = (i64)(t < 2.0 ? 2.0 : t);
        }
        if (trips[i] * total > burst) burst = trips[i] * total;
        pc[i] = at;
        at += n_bytes[i];
        target[i] = (i + 2 + (i64)(((uint64_t)i * 2654435761u
                                    + (uint64_t)seed) & 3)) % nb;
    }
    for (i64 k = 0; k < h; k++)
        hot[k] = (i64)(hot_draw[k] * hot_draw[k] * (f64)nb);
    qsort(hot, (size_t)h, sizeof *hot, cmp_i64);
    for (i64 k = 0; k < h; k++)
        if (n_hot == 0 || hot[k] != hot[n_hot - 1]) hot[n_hot++] = hot[k];
    tab[T_N_BLOCKS] = nb;
    tab[T_N_HOT] = n_hot;
    tab[T_N_CHUNKS] = n_chunks;
    tab[T_CHUNK_BYTES] = chunk_bytes;
    tab[T_BURST] = burst;
    return n_hot;
}

/* ================= the walk ================= */

/* Walk ~n_instr instructions of the region from `entry` (-1: a random
 * hot entry), appending ops to the four `cap`-long columns of `out`
 * (kinds, a0, a1, a2).  Returns the op count, or -1 if `cap` would be
 * exceeded; `res[0]` receives the instructions executed. */
i64 repro_walk(const i64 *tab, i64 *model, u32 *mt, i64 *out, i64 cap,
               i64 n_instr, i64 entry, i64 kernel_bit, i64 *res) {
    const i64 nb = tab[T_N_BLOCKS], n_hot = tab[T_N_HOT];
    const i64 n_chunks = tab[T_N_CHUNKS], chunk_bytes = tab[T_CHUNK_BYTES];
    const i64 *pc = tab + T_HDR + C_PC * nb;
    const i64 *n_other = tab + T_HDR + C_OTHER * nb;
    const i64 *n_bytes = tab + T_HDR + C_BYTES * nb;
    const i64 *n_loads = tab + T_HDR + C_LOADS * nb;
    const i64 *n_stores = tab + T_HDR + C_STORES * nb;
    const i64 *trips = tab + T_HDR + C_TRIPS * nb;
    const i64 *target = tab + T_HDR + C_TARGET * nb;
    const i64 *bias = tab + T_HDR + C_BIAS * nb;
    const i64 *hot = tab + T_HDR + C_NCOLS * nb;
    i64 *kinds = out, *a0 = out + cap, *a1 = out + 2 * cap,
        *a2 = out + 3 * cap;
    i64 k = 0, off = 0, executed = 0, run_len = 0, i;

#define EMIT(kind, x0, x1, x2) do {                                  \
        if (k >= cap) return -1;                                      \
        kinds[k] = (kind); a0[k] = (x0); a1[k] = (x1); a2[k] = (x2);  \
        k++;                                                          \
    } while (0)

    if (entry < 0)
        i = hot[(i64)(py_cube(mt_random(mt)) * (f64)n_hot)];
    else
        i = entry % nb;
    while (executed < n_instr) {
        i64 reps = trips[i];
        for (i64 rep = 0; rep < reps; rep++) {
            i64 other = n_other[i], loads = n_loads[i], stores = n_stores[i];
            if (other)
                EMIT(OP_BLOCK, pc[i] + off, other, n_bytes[i] | kernel_bit);
            for (i64 q = 0; q < loads; q++)
                EMIT(OP_LOAD, model_addr(model, mt, 0), 0, 0);
            for (i64 q = 0; q < stores; q++)
                EMIT(OP_STORE, model_addr(model, mt, 1), 0, 0);
            executed += other + loads + stores + 1;
            i64 branch_pc = pc[i] + off + n_bytes[i] - 4;
            if (rep < reps - 1) {       /* loop backedge */
                EMIT(OP_BRANCH, branch_pc, pc[i] + off, 1);
                continue;
            }
            i64 j;
            run_len++;
            if (run_len >= 8) {         /* call/jump */
                run_len = 0;
                if (mt_random(mt) < 0.98) {
                    j = hot[(i64)(py_cube(mt_random(mt)) * (f64)n_hot)];
                    off = 0;
                } else {
                    j = (i64)(mt_random(mt) * (f64)nb);
                    if (n_chunks > 1)
                        off = (i64)(mt_random(mt) * (f64)n_chunks)
                            * chunk_bytes;
                }
                EMIT(OP_BRANCH, branch_pc, pc[j] + off, 1);
            } else if (mt_random(mt) < as_f64(bias[i])) {
                j = target[i];
                EMIT(OP_BRANCH, branch_pc, pc[j] + off, 1);
            } else {
                j = (i + 1) % nb;
                EMIT(OP_BRANCH, branch_pc, pc[j] + off, 0);
            }
            i = j;
        }
    }
#undef EMIT
    res[0] = executed;
    return k;
}
