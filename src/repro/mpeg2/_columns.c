/* Columns and plans, natively: what numpy does between the slice walk's
 * records and the execute phase, as serial passes.
 *
 * Two jobs, each a port and not a second implementation.  The Python is the
 * specification (and the engine where no compiler is); results are equal to
 * its results in value, and the glue (native_columns.py) gives them its
 * dtypes and shapes.
 *
 *   parse_picture   fast_vlc.expand_entries + parser._columns, chained behind
 *                   the slice walk: the caller passes _walk.c's walk_picture
 *                   and its arguments, so a picture's parse is one foreign
 *                   call and the records never visit the interpreter.
 *   build_plan      plan.check_staging + plan.assemble_plan.
 *   check_vectors   plan.check_plan's tests, on a plan off the wire.
 *
 * No table is restated: fast_vlc's _NSYM / _SYM / _EOB (the first and last
 * packed, by the glue, into one word a row), the constants of its entry
 * encoding and plan._QSCALE_OF_CODE are passed in.
 *
 * Memory: nothing is allocated here.  Each job first counts -- and checks
 * every record it will dereference, so nothing is written on a refusal --
 * then asks the caller, through `alloc`, for arrays of exactly the counted
 * sizes, and writes each element once.  No state outlives a call and there
 * are no mutable globals, so calls may run concurrently.  Built without
 * Python headers (cc -O2 -shared -fPIC), called via ctypes.
 */
#include <stdint.h>
#include <string.h>

/* the flags column: fast_vlc.MB_* */
enum { MB_INTRA = 1, MB_PATTERN = 2, MB_BACKWARD = 4, MB_FORWARD = 8, MB_QUANT = 16, MB_SKIPPED = 32 };
enum { ROW_WIDTH = 7, SKIP_WIDTH = 5, SLICE_WIDTH = 3 }; /* fast_vlc.*_WIDTH */
/* _walk.c's buffers, its result words and the head of its pic[] */
enum { R_ROWS, R_SKIPS, R_MVD, R_ENTRIES, R_SPANS, R_SLICES, N_REC };
enum { P_MB_WIDTH, P_MB_HEIGHT };

/* Return codes.  1-31 are the walk's own; `err` holds {field, index} for
 * REFUSED (native_columns._FIELDS names the fields) and {position in the
 * selection, row} for STAGING. */
enum { OK, OVERRUN_INTRA = 32, OVERRUN, REFUSED, NO_MEMORY, STAGING, MB_X_RANGE, MB_Y_RANGE };
enum {
    F_ADDRESS, F_FLAGS, F_QCODE, F_CBP, F_BITS, F_SKIP_AT, F_SKIP_ADDRESS, F_SKIP_COUNT,
    F_SKIP_FLAGS, F_SKIP_QCODE, F_MVD, F_ENTRIES, F_SPANS, F_SLICE_ROW, F_SLICE_QCODE, F_SLICE_END,
    F_BLOCKS, F_CAPACITY, F_IDX, F_FIRST_BLOCK, F_N_BLOCKS, F_BLOCK_NCOEF, F_QSCALE_CODE
};

#define REFUSE(field, index) \
    do { err[0] = (field); err[1] = (index); return REFUSED; } while (0)

typedef int (*walk_fn)(const uint8_t *data, int64_t len, int64_t pos, const void *tables,
                       const int64_t *pic, int64_t *const *buf, const int64_t *cap, int64_t *res);
/* Arrays for the five `counts`; their addresses into `out`.  Nonzero: none. */
typedef int (*alloc_fn)(const int64_t *counts, void **out);

typedef struct {
    /* fast_vlc._NSYM | _EOB << 3 | a row's summed advances << 4, per table row */
    const uint16_t *count;
    const int8_t *sym; /* fast_vlc._SYM by bytes: (level, advance) a cell */
    int64_t n_rows, max_syms, table_rows; /* len(_NSYM), _SYM.shape[1], _TABLE_ROWS */
    int64_t direct, direct_dc, level_shift; /* _DIRECT, _DIRECT_DC, _LEVEL_SHIFT */
    int64_t overrun_first; /* bit c: walk error c lets an earlier run overrun out first */
    int64_t p_picture, dc_reset;
    int64_t f16[4]; /* the vector range of forward x, y, backward x, y */
} columns_t;

/* what parse_picture fills; the last four in a full parse only */
enum {
    C_ADDRESS, C_QCODE, C_CBP, C_BIT_START, C_BODY_START, C_BIT_END, C_SLICE_ROW, C_SLICE_INDEX,
    C_FIRST_BLOCK, C_N_BLOCKS, C_SKIPPED, C_INTRA, C_PATTERN, C_QUANT, C_MOTION, C_MV,
    C_BLOCK_SLOT, C_BLOCK_NCOEF, C_COEF_POS, C_COEF_LEVEL,
    C_STATE_QCODE, C_STATE_DC, C_STATE_PMV, C_STATE_DIR, N_COLUMNS
};

static inline int popcount6(int64_t cbp)
{
    int n = 0;
    for (int b = 0; b < 6; b++)
        n += (cbp >> b) & 1;
    return n;
}

/* One picture's records, as the walk left them (fast_vlc.ColumnArrays). */
typedef struct {
    const int64_t *rows, *skips, *mvd, *entries, *spans, *slices;
    int64_t n_rows, n_skips, n_mvd, n_entries, n_spans, n_slices;
    int64_t n_addresses; /* macroblocks of the raster */
    int64_t n_bits;      /* of the picture unit */
} records_t;

/* The table row of entry `e` -- the window itself, or a direct entry's low
 * bits; table one's rows `table` further on -- or -1: a window is 16 bits and
 * nothing else, a direct entry's level an int32. */
static inline int64_t entry_row(const columns_t *k, int64_t e, int64_t table)
{
    const int64_t low = e & (2 * k->direct - 1), level = e >> k->level_shift;
    if (e & k->direct ? level != (int32_t)level : e != low)
        return -1;
    return low + table < k->n_rows ? low + table : -1;
}

/* The check fast_vlc.expand_entries makes, and its counts: blocks into
 * counts[1], levels into counts[2], or the run overrun of the first block,
 * in stream order, whose levels pass scan position 63.  `partial`: levels
 * after the last EOB are one more block to check (the walk stopped inside
 * it), not a refusal.  Reads k->count only. */
static int count_entries(const columns_t *k, const records_t *r, int partial, int64_t *counts,
                         int64_t *err)
{
    const int64_t *e = r->entries, *spans = r->spans;
    int64_t blocks = 0, coefs = 0, span = 0, table = 0;
    int64_t p = -1, first = 0, held = 0; /* the open block: position, first entry, levels */

    for (int64_t j = 0; j < r->n_spans; j++) /* in order, inside, none empty */
        if (spans[j] < (j ? spans[j - 1] : 0) || spans[j] > r->n_entries
            || ((j & 1) && spans[j] == spans[j - 1]))
            REFUSE(F_SPANS, j);
    for (int64_t i = 0; i < r->n_entries; i++) {
        while (span < r->n_spans && spans[span] == i) /* table one inside a span */
            table = span++ & 1 ? 0 : k->table_rows;
        const int64_t row = entry_row(k, e[i], table);
        if (row < 0) REFUSE(F_ENTRIES, i);
        const int packed = k->count[row], n = packed & 7;
        if ((e[i] & k->direct) && n != 1) REFUSE(F_ENTRIES, i); /* one symbol spelled out */
        held += n, p += packed >> 4;
        if (!(packed & 8))
            continue;
        if (p > 63)
            break;
        if (!held) REFUSE(F_ENTRIES, i); /* every block codes a level */
        blocks++, coefs += held, p = -1, first = i + 1, held = 0;
    }
    if (p > 63)
        return (e[first] & k->direct_dc) == k->direct_dc ? OVERRUN_INTRA : OVERRUN;
    if (held && !partial) REFUSE(F_ENTRIES, r->n_entries);
    counts[1] = blocks, counts[2] = coefs + held;
    return OK;
}

/* fast_vlc.expand_entries proper, over entries count_entries passed:
 * C_COEF_POS (block * 64 + scan position), C_COEF_LEVEL and C_BLOCK_NCOEF. */
static void fill_entries(const columns_t *k, const records_t *r, void *const *out)
{
    const int64_t *e = r->entries, *spans = r->spans;
    int64_t *coef_pos = out[C_COEF_POS], *block_ncoef = out[C_BLOCK_NCOEF];
    int32_t *coef_level = out[C_COEF_LEVEL];
    int64_t blocks = 0, coefs = 0, span = 0, table = 0, base = 0, p = -1, held = 0;

    for (int64_t i = 0; i < r->n_entries; i++) {
        while (span < r->n_spans && spans[span] == i)
            table = span++ & 1 ? 0 : k->table_rows;
        const int64_t row = (e[i] & (2 * k->direct - 1)) + table;
        const int8_t *cell = k->sym + 2 * k->max_syms * row; /* (level, advance) pairs */
        const int packed = k->count[row], n = packed & 7;
        for (int s = 0; s < n; s++, coefs++) {
            p += cell[2 * s + 1];
            coef_pos[coefs] = base + p;
            coef_level[coefs] = cell[2 * s];
        }
        if (e[i] & k->direct) /* one symbol, its level spelled out */
            coef_level[coefs - 1] = (int32_t)(e[i] >> k->level_shift);
        held += n;
        if (packed & 8)
            block_ncoef[blocks++] = held, base += 64, p = -1, held = 0;
    }
}

/* Every check parser._columns leaves to numpy's indexing, and the count of
 * macroblocks, skipped ones too, into counts[0].  counts[1]: the blocks the
 * entries hold. */
static int count_macroblocks(const records_t *r, int64_t *counts, int64_t *err)
{
    int64_t blocks = 0, deltas = 0, n_mb = r->n_rows, at = 0;
    for (int64_t i = 0; i < r->n_rows; i++) {
        const int64_t *row = r->rows + ROW_WIDTH * i;
        if (row[0] < 0 || row[0] >= r->n_addresses) REFUSE(F_ADDRESS, i);
        if (row[1] < 0 || row[1] >= MB_SKIPPED) REFUSE(F_FLAGS, i);
        if (row[2] < 0 || row[2] > 31) REFUSE(F_QCODE, i); /* five bits */
        if (row[3] < 0 || row[3] > 63 || ((row[1] & MB_INTRA) && row[3] != 63)) REFUSE(F_CBP, i);
        /* (a code the zero padding completes may end a little past the data) */
        if (row[4] < 0 || row[5] < row[4] || row[6] < row[5] || row[6] > r->n_bits + 64)
            REFUSE(F_BITS, i);
        blocks += popcount6(row[3]);
        deltas += (row[1] & MB_FORWARD ? 2 : 0) + (row[1] & MB_BACKWARD ? 2 : 0);
    }
    if (blocks != counts[1]) REFUSE(F_BLOCKS, blocks);
    if (deltas != r->n_mvd) REFUSE(F_MVD, r->n_mvd);
    for (int64_t i = 0; i < r->n_mvd; i++)
        if (r->mvd[i] != (int32_t)r->mvd[i]) REFUSE(F_MVD, i);
    for (int64_t i = 0; i < r->n_skips; i++) { /* each run before a later coded row */
        const int64_t *skip = r->skips + SKIP_WIDTH * i;
        if (skip[0] <= at || skip[0] >= r->n_rows) REFUSE(F_SKIP_AT, i);
        if (skip[1] < 0 || skip[1] >= r->n_addresses) REFUSE(F_SKIP_ADDRESS, i);
        if (skip[2] < 1 || skip[2] > r->n_addresses - skip[1]) REFUSE(F_SKIP_COUNT, i);
        if (skip[3] < 0 || skip[3] >= 2 * MB_SKIPPED) REFUSE(F_SKIP_FLAGS, i);
        if (skip[4] < 0 || skip[4] > 31) REFUSE(F_SKIP_QCODE, i);
        at = skip[0], n_mb += skip[2];
    }
    at = 0;
    for (int64_t i = 0; i < r->n_slices; i++) { /* the rows, slice after slice */
        const int64_t *slice = r->slices + SLICE_WIDTH * i;
        if (slice[0] < 0 || slice[0] >= r->n_addresses) REFUSE(F_SLICE_ROW, i);
        if (slice[1] < 0 || slice[1] > 31) REFUSE(F_SLICE_QCODE, i);
        if (slice[2] < at || slice[2] > r->n_rows) REFUSE(F_SLICE_END, i);
        at = slice[2];
    }
    if (at != r->n_rows) REFUSE(F_SLICE_END, r->n_slices);
    counts[0] = n_mb;
    return OK;
}

/* `v` reduced into the vector range [-f16, f16) (parser._wrap). */
static inline int64_t wrap(int64_t v, int64_t f16)
{
    const int64_t m = (v + f16) % (2 * f16);
    return (m < 0 ? m + 2 * f16 : m) - f16;
}

/* One macroblock's row of the columns that come straight from a record. */
static void put_row(void *const *out, int64_t m, int64_t address, int64_t flags, int64_t qcode,
                    int64_t cbp, int64_t slice_row, int64_t slice_index, int64_t first_block)
{
    ((int64_t *)out[C_ADDRESS])[m] = address;
    ((int64_t *)out[C_QCODE])[m] = qcode;
    ((int64_t *)out[C_CBP])[m] = cbp;
    ((int64_t *)out[C_SLICE_ROW])[m] = slice_row;
    ((int64_t *)out[C_SLICE_INDEX])[m] = slice_index;
    ((int64_t *)out[C_FIRST_BLOCK])[m] = first_block;
    ((int64_t *)out[C_N_BLOCKS])[m] = popcount6(cbp);
    ((uint8_t *)out[C_SKIPPED])[m] = (flags & MB_SKIPPED) != 0;
    ((uint8_t *)out[C_INTRA])[m] = (flags & MB_INTRA) != 0;
    ((uint8_t *)out[C_PATTERN])[m] = (flags & MB_PATTERN) != 0;
    ((uint8_t *)out[C_QUANT])[m] = (flags & MB_QUANT) != 0;
    ((uint8_t *)out[C_MOTION])[2 * m] = (flags & MB_FORWARD) != 0;
    ((uint8_t *)out[C_MOTION])[2 * m + 1] = (flags & MB_BACKWARD) != 0;
}

/* The state before macroblock `m` (a full parse's StateColumns). */
static void put_state(void *const *out, int64_t m, int64_t qcode, const int64_t *dc,
                      const int64_t *pmv, int64_t flags)
{
    if (!out[C_STATE_QCODE])
        return;
    ((int64_t *)out[C_STATE_QCODE])[m] = qcode;
    memcpy((int64_t *)out[C_STATE_DC] + 3 * m, dc, 3 * sizeof *dc);
    memcpy((int64_t *)out[C_STATE_PMV] + 4 * m, pmv, 4 * sizeof *pmv);
    ((uint8_t *)out[C_STATE_DIR])[2 * m] = (flags & MB_FORWARD) != 0;
    ((uint8_t *)out[C_STATE_DIR])[2 * m + 1] = (flags & MB_BACKWARD) != 0;
}

/* parser._columns after the expansion, as the serial pass the standard
 * describes: DC levels along intra chains (section 7.2.1), vectors from
 * deltas with the resets of section 7.6.3.4, skipped runs as rows with the
 * vectors of section 7.6.6, and the state before every macroblock.  The
 * records passed count_macroblocks, so nothing here can fail. */
static void fill_macroblocks(const columns_t *k, const records_t *r, void *const *out)
{
    static const int64_t zero[4] = {0, 0, 0, 0};
    const int64_t reset[3] = {k->dc_reset, k->dc_reset, k->dc_reset}, p_picture = k->p_picture;
    const int64_t *block_ncoef = out[C_BLOCK_NCOEF];
    int64_t *mv = out[C_MV], *block_slot = out[C_BLOCK_SLOT];
    int32_t *coef_level = out[C_COEF_LEVEL];
    int64_t m = 0, block = 0, coef = 0, delta = 0, skip = 0, i = 0;
    /* what the coded macroblock before left: flags, quantiser, vector and
     * DC predictors, and whether it lost its vector predictors */
    int64_t before = 0, qcode = 0, pmv[4] = {0, 0, 0, 0}, dc[3], lost = 1;
    memcpy(dc, reset, sizeof dc);

    for (int64_t s = 0; s < r->n_slices; s++) {
        const int64_t *slice = r->slices + SLICE_WIDTH * s;
        for (int first = 1; i < slice[2]; i++, first = 0) {
            const int64_t *row = r->rows + ROW_WIDTH * i, flags = row[1];
            int fresh = first;
            if (skip < r->n_skips && r->skips[SKIP_WIDTH * skip] == i) {
                /* The run's macroblocks have no vector in a P-picture; in a
                 * B-picture the predictors the one before left, in its
                 * directions.  The first still sees the state it left. */
                const int64_t *run = r->skips + SKIP_WIDTH * skip++;
                const int64_t *left = lost ? zero : pmv;
                for (int64_t j = 0; j < run[2]; j++, m++) {
                    put_row(out, m, run[1] + j, run[3], run[4], 0, slice[0], s, block);
                    for (int c = 0; c < 3; c++)
                        ((int64_t *)out[C_BIT_START + c])[m] = -1;
                    for (int c = 0; c < 4; c++)
                        mv[4 * m + c] = !p_picture && (before & (c < 2 ? MB_FORWARD : MB_BACKWARD)) ? left[c] : 0;
                    put_state(out, m, run[4], j ? reset : dc, j && p_picture ? zero : left, before);
                }
                fresh = 1;
            }
            /* vectors: the predictors begin again at a slice, after a
             * macroblock that lost them, and in a P-picture after a run */
            if (first || lost || (p_picture && fresh))
                memset(pmv, 0, sizeof pmv);
            if (fresh)
                memcpy(dc, reset, sizeof dc);
            put_row(out, m, row[0], flags, row[2], row[3], slice[0], s, block);
            for (int c = 0; c < 3; c++)
                ((int64_t *)out[C_BIT_START + c])[m] = row[4 + c];
            put_state(out, m, first ? slice[1] : qcode, dc, pmv, first ? 0 : before);
            for (int c = 0; c < 4; c++) {
                const int coded = (flags & (c < 2 ? MB_FORWARD : MB_BACKWARD)) != 0;
                pmv[c] = wrap(pmv[c] + (coded ? r->mvd[delta++] : 0), k->f16[c]);
                mv[4 * m + c] = coded ? pmv[c] : 0;
            }
            /* blocks: slots ascending; an intra block's first level is its
             * DC differential, summed along the chain per component */
            for (int slot = 0; slot < 6; slot++) {
                if (!(row[3] & (32 >> slot)))
                    continue;
                if (flags & MB_INTRA) {
                    int64_t *pred = dc + (slot < 4 ? 0 : slot - 3);
                    *pred += coef_level[coef];
                    coef_level[coef] = (int32_t)*pred;
                }
                coef += block_ncoef[block];
                block_slot[block++] = slot;
            }
            if (!(flags & MB_INTRA))
                memcpy(dc, reset, sizeof dc);
            before = flags, qcode = row[2], m++;
            lost = (flags & MB_INTRA) || (p_picture && !(flags & MB_FORWARD));
        }
    }
}

/* One picture's parse: the slice walk (`walk`, _walk.c's walk_picture, with
 * its own arguments; or none, and the records of a unit of `len` bytes are in
 * `buf` already, `res` words of each), then its records as columns.  `alloc`
 * is asked once, for {macroblocks, blocks, levels, 0, 0}.  Returns the walk's
 * code if it stopped at an error -- unless a run overran its block before
 * that -- or one of ours. */
int parse_picture(walk_fn walk, const uint8_t *data, int64_t len, int64_t pos, const void *tables,
                  const int64_t *pic, int64_t *const *buf, const int64_t *cap, int64_t *res,
                  const columns_t *k, alloc_fn alloc, int64_t *err)
{
    const int code = walk ? walk(data, len, pos, tables, pic, buf, cap, res) : OK;
    static const int width[N_REC] = {ROW_WIDTH, SKIP_WIDTH, 1, 1, 1, SLICE_WIDTH};
    for (int b = 0; b < N_REC; b++)
        if (res[b] < 0 || res[b] > cap[b] || res[b] % width[b]) REFUSE(F_CAPACITY, b);
    const records_t records = {
        buf[R_ROWS], buf[R_SKIPS], buf[R_MVD], buf[R_ENTRIES], buf[R_SPANS], buf[R_SLICES],
        res[R_ROWS] / ROW_WIDTH, res[R_SKIPS] / SKIP_WIDTH, res[R_MVD], res[R_ENTRIES],
        res[R_SPANS], res[R_SLICES] / SLICE_WIDTH, pic[P_MB_WIDTH] * pic[P_MB_HEIGHT], 8 * len,
    }, *r = &records;
    int64_t counts[5] = {0, 0, 0, 0, 0};
    void *out[N_COLUMNS];
    int refusal;

    if (code) { /* the first error in stream order wins */
        if (code < 64 && (k->overrun_first >> code & 1)
            && ((refusal = count_entries(k, r, 1, counts, err)) == OVERRUN || refusal == OVERRUN_INTRA))
            return refusal;
        return code;
    }
    if ((refusal = count_entries(k, r, 0, counts, err)) || (refusal = count_macroblocks(r, counts, err)))
        return refusal;
    memset(out, 0, sizeof out);
    if (alloc(counts, out))
        return NO_MEMORY;
    fill_entries(k, r, out);
    fill_macroblocks(k, r, out);
    return OK;
}

/* plan._check_vectors' test of one macroblock: does it predict at all, and
 * does each vector it predicts with read inside the reference planes (the
 * luma and the chroma read of plan.reference_rects)? */
static int staged(int64_t mb_x, int64_t mb_y, int intra, const uint8_t *dir, const int64_t *mv,
                  int64_t width, int64_t height)
{
    if (!intra && !dir[0] && !dir[1])
        return 0;
    for (int d = 0; d < 2; d++) {
        const int64_t x = mv[2 * d], y = mv[2 * d + 1];
        if (!dir[d] || (!x && !y)) /* the zero vector is always in bounds */
            continue;
        for (int chroma = 0; chroma < 2; chroma++) {
            const int64_t vx = chroma ? x / 2 : x, vy = chroma ? y / 2 : y; /* toward zero */
            const int64_t size = chroma ? 8 : 16;
            const int64_t x0 = mb_x * size + (vx >> 1), y0 = mb_y * size + (vy >> 1);
            if (x0 < 0 || y0 < 0 || x0 + size + (vx & 1) > (chroma ? width / 2 : width)
                || y0 + size + (vy & 1) > (chroma ? height / 2 : height))
                return 0;
        }
    }
    return 1;
}

/* A plan's macroblocks held to a raster (plan.check_plan): every mb_x, then
 * every mb_y, inside it, then every macroblock staged.  `err`: the first
 * macroblock refused. */
int check_vectors(int64_t n, const int64_t *mb_x, const int64_t *mb_y, const uint8_t *intra,
                  const uint8_t *dir, const int64_t *mv, int64_t mb_width, int64_t mb_height,
                  int64_t width, int64_t height, int64_t *err)
{
    int64_t i;
    for (i = 0; i < n && mb_x[i] >= 0 && mb_x[i] < mb_width; i++)
        ;
    if (i < n)
        return err[0] = i, MB_X_RANGE;
    for (i = 0; i < n && mb_y[i] >= 0 && mb_y[i] < mb_height; i++)
        ;
    if (i < n)
        return err[0] = i, MB_Y_RANGE;
    for (i = 0; i < n && staged(mb_x[i], mb_y[i], intra[i], dir + 2 * i, mv + 4 * i, width, height); i++)
        ;
    if (i < n)
        return err[0] = i, STAGING;
    return OK;
}

/* One parsed picture's columns (parser.PictureColumns) and what to make of them. */
typedef struct {
    int64_t n_mb, n_blocks, n_coefs;
    const int64_t *address;
    const uint8_t *intra, *motion;
    const int64_t *mv, *qscale_code, *first_block, *n_blocks_of, *block_slot, *block_ncoef, *coef_pos;
    const int32_t *coef_level;
    const int64_t *idx; /* the rows to plan, ascending; none: all n_mb */
    int64_t n_idx;
    int64_t p_picture, mb_width, mb_height;
    int64_t check, width, height; /* hold the rows to this raster first */
    const int64_t *qscale;        /* plan._QSCALE_OF_CODE */
    int64_t n_qscale;
} picture_t;

/* what build_plan fills; P_MB_INTRA and P_MB_MV only for a selection of rows
 * (a plan of all rows shares the columns' own arrays, as numpy's does) */
enum {
    P_MB_X, P_MB_Y, P_MB_RES_ROW, P_MB_DIR, P_MB_INTRA, P_MB_MV, P_BLOCK_NCOEF, P_BLOCK_QSCALE,
    P_BLOCK_RES, P_BLOCK_SLOT, P_COEF_SCAN, P_COEF_LEVEL, N_PLAN
};

/* `n` levels as a plan holds them: scan positions (coef_pos & 63) as uint8,
 * levels as saturating int16 (plan.narrow_levels). */
static void narrow(const int64_t *restrict pos, const int32_t *restrict level, int64_t n,
                   uint8_t *restrict scan, int16_t *restrict narrowed)
{
    for (int64_t t = 0; t < n; t++) {
        scan[t] = pos[t] & 63;
        narrowed[t] = level[t] < INT16_MIN ? INT16_MIN : level[t] > INT16_MAX ? INT16_MAX : level[t];
    }
}

/* One pass over the rows to plan, in the order plan.assemble_plan gives
 * their blocks: intra first, stream order within each class.  Without `out`
 * it checks every index it follows and counts, into `n_of` and `coefs_of`,
 * the blocks and levels of the two classes; with `out` it writes, levels
 * straight to the plan's dtypes.  `*n_res`: the residual rows. */
static int plan_rows(const picture_t *c, int64_t n, int64_t *n_of, int64_t *coefs_of,
                     int64_t *n_res, void *const *out, int64_t *err)
{
    int64_t to_block[2] = {0, out ? n_of[0] : 0}, to_coef[2] = {0, out ? coefs_of[0] : 0};
    int64_t block = 0, coef = 0, res = 0; /* the columns' cursor: a block, the levels before it */

    for (int64_t j = 0; j < n; j++) {
        const int64_t i = c->idx ? c->idx[j] : j, blocks = c->n_blocks_of[i];
        const int64_t first = c->first_block[i], qcode = c->qscale_code[i];
        const int inter = !c->intra[i];
        if (!out) {
            if (qcode < 0 || qcode >= c->n_qscale) REFUSE(F_QSCALE_CODE, i);
            if (blocks < 0 || blocks > 6) REFUSE(F_N_BLOCKS, i);
            if (blocks && (first < block || first > c->n_blocks - blocks)) REFUSE(F_FIRST_BLOCK, i);
        } else {
            ((int64_t *)out[P_MB_X])[j] = c->address[i] % c->mb_width;
            ((int64_t *)out[P_MB_Y])[j] = c->address[i] / c->mb_width;
            ((int64_t *)out[P_MB_RES_ROW])[j] = blocks ? res : -1;
            /* "No MC": a P-picture predicts forward without a vector */
            ((uint8_t *)out[P_MB_DIR])[2 * j] = inter && (c->p_picture || c->motion[2 * i]);
            ((uint8_t *)out[P_MB_DIR])[2 * j + 1] = inter && c->motion[2 * i + 1];
            if (c->idx) {
                ((uint8_t *)out[P_MB_INTRA])[j] = !inter;
                memcpy((int64_t *)out[P_MB_MV] + 4 * j, c->mv + 4 * i, 4 * sizeof *c->mv);
            }
        }
        if (!blocks)
            continue;
        for (; block < first + blocks; block++) { /* past the blocks between, then its own */
            const int64_t held = c->block_ncoef[block];
            if (!out && (held < 0 || held > c->n_coefs - coef || (block >= first && held > 64)))
                REFUSE(F_BLOCK_NCOEF, block);
            if (block >= first) {
                const int64_t b = to_block[inter]++, at = to_coef[inter];
                to_coef[inter] += held;
                if (out) {
                    ((uint8_t *)out[P_BLOCK_NCOEF])[b] = (uint8_t)held;
                    ((int64_t *)out[P_BLOCK_QSCALE])[b] = c->qscale[qcode];
                    ((int64_t *)out[P_BLOCK_RES])[b] = res;
                    ((int64_t *)out[P_BLOCK_SLOT])[b] = c->block_slot[block];
                    narrow(c->coef_pos + coef, c->coef_level + coef, held,
                           (uint8_t *)out[P_COEF_SCAN] + at, (int16_t *)out[P_COEF_LEVEL] + at);
                }
            }
            coef += held;
        }
        res++;
    }
    if (!out)
        memcpy(n_of, to_block, sizeof to_block), memcpy(coefs_of, to_coef, sizeof to_coef);
    *n_res = res;
    return OK;
}

/* plan.check_staging, then plan.assemble_plan.  `alloc` is asked once, for
 * {macroblocks, blocks, levels, intra blocks, residual rows}: the last two
 * are the plan's n_intra_blocks and n_res. */
int build_plan(const picture_t *c, alloc_fn alloc, int64_t *err)
{
    const int64_t n = c->idx ? c->n_idx : c->n_mb;
    int64_t n_of[2], coefs_of[2], n_res;
    void *out[N_PLAN];

    for (int64_t j = 0; j < n; j++) { /* the rows, and the staging check */
        const int64_t i = c->idx ? c->idx[j] : j;
        if (i < 0 || i >= c->n_mb || (c->idx && j && i <= c->idx[j - 1])) REFUSE(F_IDX, j);
        if (c->address[i] < 0 || c->address[i] >= c->mb_width * c->mb_height) REFUSE(F_ADDRESS, i);
        const uint8_t dir[2] = {
            !c->intra[i] && (c->p_picture || c->motion[2 * i]), !c->intra[i] && c->motion[2 * i + 1],
        };
        if (c->check && !staged(c->address[i] % c->mb_width, c->address[i] / c->mb_width,
                                c->intra[i], dir, c->mv + 4 * i, c->width, c->height)) {
            err[0] = j, err[1] = i;
            return STAGING;
        }
    }
    if (plan_rows(c, n, n_of, coefs_of, &n_res, 0, err))
        return REFUSED;
    const int64_t counts[5] = {n, n_of[0] + n_of[1], coefs_of[0] + coefs_of[1], n_of[0], n_res};
    memset(out, 0, sizeof out);
    if (alloc(counts, out))
        return NO_MEMORY;
    return plan_rows(c, n, n_of, coefs_of, &n_res, out, err);
}
