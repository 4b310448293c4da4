/* The execute phase, natively: one call per picture dequantises and
 * inverse-transforms every coded block, then predicts, adds, clips and
 * stores every macroblock -- what batch_reconstruct's numpy body does with
 * gathers, scatters and stacks, done once per sample.
 *
 * This file is a port, not a second reconstruction.  The numpy body
 * (batch_reconstruct._execute_numpy) is the specification, and the engine
 * where no compiler is: the integer arithmetic here is dct.py's and
 * motion.py's, entry for entry and sample for sample -- the IDCT included,
 * which is dct.idct's integer transform, not an approximation of it.  No
 * table is restated: the scan-order weights and RASTER_OF_SCAN come in as
 * arguments.
 *
 * Memory safety: no index from a plan is dereferenced before it is checked
 * against the lengths and plane shapes the caller gives (a nonzero return is
 * an error code, native_execute._ERRORS, with the offending row in *at), and
 * execute() checks every macroblock before it writes the first sample of the
 * output.  No state outlives a call and there are no mutable globals, so
 * calls may run concurrently.  Built without Python headers (cc -O2 -shared
 * -fPIC), no libm; called via ctypes, which releases the GIL for the call.
 */
#include <stdint.h>
#include <string.h>

enum {
    OK, E_NCOEF, E_SCAN, E_RASTER, E_BLOCK_RES, E_BLOCK_SLOT, E_MB_X, E_MB_Y, E_RES_ROW,
    E_NO_DIRECTION, E_NO_FORWARD, E_NO_BACKWARD, E_MB_MV, E_COEFF
};
enum { COEFF_MIN = -2048, COEFF_MAX = 2047 }; /* dct.COEFF_MIN, COEFF_MAX */

typedef struct {
    uint8_t *plane[3];  /* y, cb, cr; plane[0] NULL: no such reference */
    int64_t stride[3];  /* bytes from a row to the next; columns are adjacent */
    int64_t width, height; /* luma; both chroma planes are half of each */
} frame_t;

/* A ReconstructionPlan's columns, with the lengths the caller checked them
 * to have (native_execute._Plan). */
typedef struct {
    int64_t n_blocks, n_intra, n_coefs, n_res, n_mb, dc_scaler;
    const uint8_t *block_ncoef;
    const int64_t *block_qscale, *block_res, *block_slot;
    const uint8_t *coef_scan;
    const int16_t *coef_level;
    const int64_t *intra_scan, *non_intra_scan, *raster_of_scan; /* 64 each */
    const int64_t *mb_x, *mb_y;
    const uint8_t *mb_intra, *mb_dir; /* mb_dir: 2 per macroblock */
    const int64_t *mb_mv, *mb_res_row; /* mb_mv: 4 per macroblock */
} plan_t;

/* ---------------------------------------------------------------------- */
/* dct.idct: the MPEG Software Simulation Group's integer Chen-Wang IDCT   */
/* ---------------------------------------------------------------------- */

/* W_k = 2048 sqrt(2) cos(k pi / 16), rounded */
enum { W1 = 2841, W2 = 2676, W3 = 2408, W5 = 1609, W6 = 1108, W7 = 565 };

/* One row in place.  The arithmetic is 64-bit, so no intermediate wraps for
 * any 12-bit input (the reference's 32-bit int can, on saturated blocks);
 * a row's output stays below 2**18 in magnitude. */
static inline void idct_row(int32_t *b)
{
    if (!(b[1] | b[2] | b[3] | b[4] | b[5] | b[6] | b[7])) { /* what the stages give */
        const int32_t dc = b[0] * 8;
        for (int i = 0; i < 8; i++)
            b[i] = dc;
        return;
    }
    int64_t x0 = (int64_t)b[0] * 2048 + 128, x1 = (int64_t)b[4] * 2048, x2 = b[6], x3 = b[2],
            x4 = b[1], x5 = b[7], x6 = b[5], x7 = b[3], x8;
    /* first stage */
    x8 = W7 * (x4 + x5);
    x4 = x8 + (W1 - W7) * x4;
    x5 = x8 - (W1 + W7) * x5;
    x8 = W3 * (x6 + x7);
    x6 = x8 - (W3 - W5) * x6;
    x7 = x8 - (W3 + W5) * x7;
    /* second stage */
    x8 = x0 + x1;
    x0 -= x1;
    x1 = W6 * (x3 + x2);
    x2 = x1 - (W2 + W6) * x2;
    x3 = x1 + (W2 - W6) * x3;
    x1 = x4 + x6;
    x4 -= x6;
    x6 = x5 + x7;
    x5 -= x7;
    /* third stage */
    x7 = x8 + x3;
    x8 -= x3;
    x3 = x0 + x2;
    x0 -= x2;
    x2 = (181 * (x4 + x5) + 128) >> 8;
    x4 = (181 * (x4 - x5) + 128) >> 8;
    /* fourth stage */
    b[0] = (int32_t)((x7 + x1) >> 8);
    b[1] = (int32_t)((x3 + x2) >> 8);
    b[2] = (int32_t)((x0 + x4) >> 8);
    b[3] = (int32_t)((x8 + x6) >> 8);
    b[4] = (int32_t)((x8 - x6) >> 8);
    b[5] = (int32_t)((x0 - x4) >> 8);
    b[6] = (int32_t)((x3 - x2) >> 8);
    b[7] = (int32_t)((x7 - x1) >> 8);
}

static inline int16_t clip_sample(int64_t v) { return (int16_t)(v < -256 ? -256 : v > 255 ? 255 : v); }

/* One column of row-pass output (rows 8 apart) into `dst` (rows 8 apart). */
static inline void idct_col(const int32_t *b, int16_t *dst)
{
    if (!(b[8] | b[16] | b[24] | b[32] | b[40] | b[48] | b[56])) { /* what the stages give */
        const int16_t dc = clip_sample(((int64_t)b[0] + 32) >> 6);
        for (int i = 0; i < 8; i++)
            dst[8 * i] = dc;
        return;
    }
    int64_t x0 = (int64_t)b[0] * 256 + 8192, x1 = (int64_t)b[32] * 256, x2 = b[48], x3 = b[16],
            x4 = b[8], x5 = b[56], x6 = b[40], x7 = b[24], x8;
    /* first stage */
    x8 = W7 * (x4 + x5) + 4;
    x4 = (x8 + (W1 - W7) * x4) >> 3;
    x5 = (x8 - (W1 + W7) * x5) >> 3;
    x8 = W3 * (x6 + x7) + 4;
    x6 = (x8 - (W3 - W5) * x6) >> 3;
    x7 = (x8 - (W3 + W5) * x7) >> 3;
    /* second stage */
    x8 = x0 + x1;
    x0 -= x1;
    x1 = W6 * (x3 + x2) + 4;
    x2 = (x1 - (W2 + W6) * x2) >> 3;
    x3 = (x1 + (W2 - W6) * x3) >> 3;
    x1 = x4 + x6;
    x4 -= x6;
    x6 = x5 + x7;
    x5 -= x7;
    /* third stage */
    x7 = x8 + x3;
    x8 -= x3;
    x3 = x0 + x2;
    x0 -= x2;
    x2 = (181 * (x4 + x5) + 128) >> 8;
    x4 = (181 * (x4 - x5) + 128) >> 8;
    /* fourth stage */
    dst[8 * 0] = clip_sample((x7 + x1) >> 14);
    dst[8 * 1] = clip_sample((x3 + x2) >> 14);
    dst[8 * 2] = clip_sample((x0 + x4) >> 14);
    dst[8 * 3] = clip_sample((x8 + x6) >> 14);
    dst[8 * 4] = clip_sample((x8 - x6) >> 14);
    dst[8 * 5] = clip_sample((x0 - x4) >> 14);
    dst[8 * 6] = clip_sample((x3 - x2) >> 14);
    dst[8 * 7] = clip_sample((x7 - x1) >> 14);
}

/* The transform of one block (raster order), into 64 int16 samples; `rows`
 * has bit r set for every row that may hold a nonzero coefficient (the
 * others are zero, and stay zero through the row pass). */
static inline void idct_block(int32_t *blk, unsigned rows, int16_t *dst)
{
    for (int r = 0; r < 8; r++)
        if (rows >> r & 1)
            idct_row(blk + 8 * r);
    for (int c = 0; c < 8; c++)
        idct_col(blk + c, dst + c);
}

/* dct.idct over n blocks of int64 coefficients, which must lie in
 * [COEFF_MIN, COEFF_MAX] (E_COEFF at the block otherwise). */
int64_t idct(const int64_t *coeffs, int64_t n, int16_t *samples, int64_t *at)
{
    for (int64_t b = 0; b < n; b++, coeffs += 64, samples += 64) {
        int32_t blk[64];
        unsigned rows = 0;
        for (int i = 0; i < 64; i++) {
            if (coeffs[i] < COEFF_MIN || coeffs[i] > COEFF_MAX)
                return *at = b, E_COEFF;
            blk[i] = (int32_t)coeffs[i];
            rows |= (unsigned)(blk[i] != 0) << (i >> 3);
        }
        idct_block(blk, rows, samples);
    }
    return OK;
}

/* ---------------------------------------------------------------------- */
/* prediction                                                             */
/* ---------------------------------------------------------------------- */

/* Whether vector (vx, vy) reads a size x size tile at (x, y) of a plane of
 * w x h inside it. */
static inline int inside(
    int64_t x, int64_t y, int64_t vx, int64_t vy, int size, int64_t w, int64_t h)
{
    const int64_t x0 = x + (vx >> 1), y0 = y + (vy >> 1);
    return x0 >= 0 && y0 >= 0 && x0 + size + (vx & 1) <= w && y0 + size + (vy & 1) <= h;
}

/* motion.predict_plane: half-pel prediction of a size x size tile. */
static inline void predict(
    const uint8_t *ref, int64_t stride, int fx, int fy, int size, uint8_t *restrict dst)
{
    for (int y = 0; y < size; y++) {
        const uint8_t *a = ref + y * stride, *b = a + (fy ? stride : 0);
        uint8_t *d = dst + y * size;
        if (!fx && !fy)
            memcpy(d, a, (size_t)size);
        else if (!fx)
            for (int x = 0; x < size; x++)
                d[x] = (uint8_t)((a[x] + b[x] + 1) >> 1);
        else if (!fy)
            for (int x = 0; x < size; x++)
                d[x] = (uint8_t)((a[x] + a[x + 1] + 1) >> 1);
        else
            for (int x = 0; x < size; x++)
                d[x] = (uint8_t)((a[x] + a[x + 1] + b[x] + b[x + 1] + 2) >> 2);
    }
}

/* One plane's size x size tile of an inter macroblock at (x, y), into `tile`:
 * from the one direction used, or the rounded average of both (7.6.7.1). */
static inline void predict_tile(
    const frame_t *const ref[2], const uint8_t *dir, const int64_t *mv, int p, int size,
    int64_t x, int64_t y, uint8_t *tile)
{
    uint8_t other[16 * 16];
    for (int d = 0, both = 0; d < 2; d++) {
        if (!dir[d])
            continue;
        /* chroma_mv_batch: half the luma vector, toward zero */
        const int64_t vx = p ? mv[2 * d] / 2 : mv[2 * d], vy = p ? mv[2 * d + 1] / 2 : mv[2 * d + 1];
        const int64_t stride = ref[d]->stride[p];
        const uint8_t *src = ref[d]->plane[p] + (y + (vy >> 1)) * stride + x + (vx >> 1);
        predict(src, stride, vx & 1, vy & 1, size, both ? other : tile);
        if (both++)
            for (int i = 0; i < size * size; i++)
                tile[i] = (uint8_t)((tile[i] + other[i] + 1) >> 1);
    }
}

/* An 8x8 block of `out`: the prediction (rows `pitch` apart), plus the
 * residual if there is one, clipped to a sample. */
static inline void store_block(
    uint8_t *restrict dst, int64_t stride, const uint8_t *pred, int pitch, const int16_t *res)
{
    if (!res) {
        for (int r = 0; r < 8; r++)
            memcpy(dst + r * stride, pred + r * pitch, 8);
        return;
    }
    for (int r = 0; r < 8; r++, dst += stride, pred += pitch, res += 8)
        for (int c = 0; c < 8; c++) {
            int16_t v = (int16_t)(pred[c] + res[c]);
            v = v < 0 ? 0 : v;
            dst[c] = (uint8_t)(v > 255 ? 255 : v);
        }
}

/* ---------------------------------------------------------------------- */
/* the picture                                                            */
/* ---------------------------------------------------------------------- */

/* numpy's int64 `*`: wraps. */
static inline int64_t mul(int64_t a, int64_t b) { return (int64_t)((uint64_t)a * (uint64_t)b); }

/* 1. Every coded block, dequantised (dct.dequantize_intra_sparse /
 * dequantize_non_intra_sparse: blocks are intra-first) into an int32 block on
 * the stack -- a later entry at a scan position overwrites an earlier one,
 * as the numpy scatter has it -- and transformed into residual block
 * block_res * 6 + block_slot of res6.  Uncoded blocks read zero. */
static int64_t residuals(const plan_t *plan, int16_t *res6, int64_t *at)
{
    for (int s = 0; s < 64; s++)
        if ((uint64_t)plan->raster_of_scan[s] >= 64)
            return *at = s, E_RASTER;
    /* when every row has its six blocks, row after row (a picture that is
     * all intra, or all fully coded), the blocks write all of res6 */
    int in_order = plan->n_blocks == 6 * plan->n_res;
    for (int64_t b = 0; b < plan->n_blocks; b++) {
        *at = b;
        if (plan->block_res[b] < 0 || plan->block_res[b] >= plan->n_res)
            return E_BLOCK_RES;
        if (plan->block_slot[b] < 0 || plan->block_slot[b] >= 6)
            return E_BLOCK_SLOT;
        in_order = in_order && plan->block_res[b] * 6 + plan->block_slot[b] == b;
    }
    if (!in_order)
        memset(res6, 0, (size_t)plan->n_res * 6 * 64 * sizeof *res6);
    int64_t c = 0;
    for (int64_t b = 0; b < plan->n_blocks; b++) {
        const int64_t end = c + plan->block_ncoef[b], qscale = plan->block_qscale[b];
        const int intra = b < plan->n_intra;
        int32_t blk[64] = {0};
        unsigned rows = 0;
        if (end > plan->n_coefs)
            return *at = b, E_NCOEF;
        for (; c < end; c++) {
            const int64_t q = plan->coef_level[c];
            const unsigned scan = plan->coef_scan[c];
            int64_t f;
            if (scan >= 64)
                return *at = c, E_SCAN;
            /* C's `/` truncates toward zero, as 7.4.2.3 asks */
            if (intra)
                f = scan ? mul(mul(q, plan->intra_scan[scan]), qscale) / 16 : mul(q, plan->dc_scaler);
            else
                f = mul(mul(2 * q + (q > 0) - (q < 0), plan->non_intra_scan[scan]), qscale) / 32;
            f = f < COEFF_MIN ? COEFF_MIN : f > COEFF_MAX ? COEFF_MAX : f;
            const int64_t raster = plan->raster_of_scan[scan];
            blk[raster] = (int32_t)f;
            rows |= 1u << (raster >> 3);
        }
        idct_block(blk, rows, res6 + 64 * (plan->block_res[b] * 6 + plan->block_slot[b]));
    }
    return OK;
}

/* 2. Every macroblock: prediction straight from the reference planes into a
 * tile on the stack, the residual of mb_res_row added (none for -1),
 * clipped and stored as three tiles of `out`, each sample of it written
 * once.  An intra macroblock is its clipped residual.  Nothing is written
 * unless every row checks out. */
static int64_t reconstruct(
    const plan_t *plan, const int16_t *res6, const frame_t *out, const frame_t *fwd,
    const frame_t *bwd, int64_t *at)
{
    const frame_t *const ref[2] = {fwd, bwd};
    for (int64_t i = 0; i < plan->n_mb; i++) {
        *at = i;
        if (plan->mb_x[i] < 0 || plan->mb_x[i] >= out->width / 16)
            return E_MB_X;
        if (plan->mb_y[i] < 0 || plan->mb_y[i] >= out->height / 16)
            return E_MB_Y;
        if (plan->mb_res_row[i] < -1 || plan->mb_res_row[i] >= plan->n_res)
            return E_RES_ROW;
        if (plan->mb_intra[i])
            continue;
        if (!plan->mb_dir[2 * i] && !plan->mb_dir[2 * i + 1])
            return E_NO_DIRECTION;
        for (int d = 0; d < 2; d++) {
            const int64_t vx = plan->mb_mv[4 * i + 2 * d], vy = plan->mb_mv[4 * i + 2 * d + 1];
            if (!plan->mb_dir[2 * i + d])
                continue;
            if (!ref[d]->plane[0])
                return d ? E_NO_BACKWARD : E_NO_FORWARD;
            if (!inside(plan->mb_x[i] * 16, plan->mb_y[i] * 16, vx, vy, 16, ref[d]->width, ref[d]->height)
                || !inside(plan->mb_x[i] * 8, plan->mb_y[i] * 8, vx / 2, vy / 2, 8, ref[d]->width / 2,
                           ref[d]->height / 2))
                return E_MB_MV;
        }
    }
    for (int64_t i = 0; i < plan->n_mb; i++) {
        const int16_t *res = plan->mb_res_row[i] < 0 ? 0 : res6 + 6 * 64 * plan->mb_res_row[i];
        const uint8_t *dir = plan->mb_dir + 2 * i;
        const int64_t *mv = plan->mb_mv + 4 * i, x = plan->mb_x[i], y = plan->mb_y[i];
        uint8_t tile[3][16 * 16]; /* the prediction: zero for an intra macroblock */
        if (plan->mb_intra[i]) {
            memset(tile, 0, sizeof tile);
        } else { /* (one call per plane: the size is a constant in each) */
            predict_tile(ref, dir, mv, 0, 16, x * 16, y * 16, tile[0]);
            predict_tile(ref, dir, mv, 1, 8, x * 8, y * 8, tile[1]);
            predict_tile(ref, dir, mv, 2, 8, x * 8, y * 8, tile[2]);
        }
        for (int slot = 0; slot < 6; slot++) {
            /* Y0..Y3 are the quadrants of the luma tile, then Cb, Cr */
            const int p = slot < 4 ? 0 : slot - 3, size = p ? 8 : 16;
            const int64_t row = p ? 0 : 8 * (slot >> 1), col = p ? 0 : 8 * (slot & 1);
            store_block(out->plane[p] + (y * size + row) * out->stride[p] + x * size + col,
                        out->stride[p], tile[p] + row * size + col, size, res ? res + 64 * slot : 0);
        }
    }
    return OK;
}

/* The execute phase of one picture: residuals into res6 (n_res x 6 blocks,
 * the caller's scratch), then every macroblock into `out`. */
int64_t execute(
    const plan_t *plan, int16_t *res6, const frame_t *out, const frame_t *fwd, const frame_t *bwd,
    int64_t *at)
{
    const int64_t code = residuals(plan, res6, at);
    return code ? code : reconstruct(plan, res6, out, fwd, bwd, at);
}
