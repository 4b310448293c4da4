/* The execute phase around the IDCT, natively: what batch_reconstruct's
 * numpy body does with gathers, scatters and stacks, done once per sample.
 *
 * This file is a port, not a second reconstruction.  The numpy body
 * (batch_reconstruct._execute_numpy) is the specification, and the engine
 * where no compiler is: the integer arithmetic here is dct.py's and
 * motion.py's, entry for entry and sample for sample.  The transform itself
 * stays scipy's -- Python calls it between dequantize_place, scatter_lines
 * and round_store -- and no table is restated: the scan-order weights and
 * RASTER_OF_SCAN come in as arguments.
 *
 * Memory safety: no index from a plan is dereferenced before it is checked
 * against the lengths and plane shapes the caller gives (a nonzero return is
 * an error code, native_execute._ERRORS, with the offending row in *at),
 * and reconstruct() checks every row before it writes the first sample.  No
 * state outlives a call and there are no mutable globals, so calls may run
 * concurrently.  Built without Python headers (cc -O2 -shared -fPIC), no
 * libm; called via ctypes.
 */
#include <stdint.h>
#include <string.h>

enum {
    OK, E_NCOEF, E_SCAN, E_RASTER, E_LINES, E_SLOT_MAP, E_BLOCK_RES, E_BLOCK_SLOT,
    E_MB_X, E_MB_Y, E_RES_ROW, E_NO_DIRECTION, E_NO_FORWARD, E_NO_BACKWARD, E_MB_MV
};
enum { COEFF_MIN = -2048, COEFF_MAX = 2047 }; /* dct.COEFF_MIN, COEFF_MAX */

typedef struct {
    uint8_t *plane[3];  /* y, cb, cr; plane[0] NULL: no such reference */
    int64_t stride[3];  /* bytes from a row to the next; columns are adjacent */
    int64_t width, height; /* luma; both chroma planes are half of each */
} frame_t;

/* numpy's int64 `*`: wraps. */
static inline int64_t mul(int64_t a, int64_t b) { return (int64_t)((uint64_t)a * (uint64_t)b); }

/* numpy's `//` by a positive divisor: floors. */
static inline int64_t floor_div(int64_t a, int64_t d) { return a / d - (a % d < 0); }

/* 1. dct.dequantize_intra_sparse / dequantize_non_intra_sparse over blocks
 * b0..b1 (whose entries start at entry c0), placed not in a dense stack but
 * in the block *columns* that hold a nonzero value: column `col` of block b
 * is line slots[8 * (b - b0) + col] of `lines` (8 doubles, by row), or -1
 * and all zero.  A later entry at a scan position overwrites an earlier one,
 * as the numpy scatter has it.  out[0]: lines used; out[1]: entries read. */
int64_t dequantize_place(
    const uint8_t *block_ncoef, const int64_t *block_qscale, int64_t b0, int64_t b1,
    int64_t n_intra, const uint8_t *coef_scan, const int16_t *coef_level, int64_t c0,
    int64_t n_coefs, const int64_t *intra_scan, const int64_t *non_intra_scan,
    const int64_t *raster_of_scan, int64_t dc_scaler, double *lines, int64_t line_cap,
    int32_t *slots, int64_t *out, int64_t *at)
{
    int64_t n_lines = 0, c = c0;
    for (int64_t b = b0; b < b1; b++) {
        int32_t *slot = slots + 8 * (b - b0);
        const int64_t end = c + block_ncoef[b], qscale = block_qscale[b];
        for (int i = 0; i < 8; i++)
            slot[i] = -1;
        if (c < 0 || end > n_coefs)
            return *at = b, E_NCOEF;
        for (; c < end; c++) {
            const int64_t q = coef_level[c];
            const unsigned scan = coef_scan[c];
            int64_t f;
            if (scan >= 64)
                return *at = c, E_SCAN;
            if (b < n_intra)
                f = scan ? floor_div(mul(mul(q, intra_scan[scan]), qscale), 16) : mul(q, dc_scaler);
            else
                f = floor_div(mul(mul(2 * q + (q > 0) - (q < 0), non_intra_scan[scan]), qscale), 32);
            f = f < COEFF_MIN ? COEFF_MIN : f > COEFF_MAX ? COEFF_MAX : f;
            const uint64_t raster = (uint64_t)raster_of_scan[scan];
            if (raster >= 64)
                return *at = scan, E_RASTER;
            int32_t line = slot[raster & 7];
            if (line < 0) {
                if (!f)
                    continue; /* zero over zeros: no column to open */
                if (n_lines >= line_cap)
                    return *at = b, E_LINES;
                line = slot[raster & 7] = (int32_t)n_lines++;
                memset(lines + 8 * line, 0, 8 * sizeof(double));
            }
            lines[8 * line + (raster >> 3)] = (double)f;
        }
    }
    out[0] = n_lines, out[1] = c - c0;
    return OK;
}

/* 2. The transformed columns back into their blocks: every sample of the
 * `n` blocks of `piece` is written, a line's or zero. */
int64_t scatter_lines(
    const double *lines, int64_t n_lines, const int32_t *slots, int64_t n, double *piece,
    int64_t *at)
{
    memset(piece, 0, (size_t)n * 64 * sizeof(double));
    for (int64_t b = 0; b < n; b++, piece += 64)
        for (int col = 0; col < 8; col++) {
            const int32_t line = slots[8 * b + col];
            if (line < -1 || line >= n_lines)
                return *at = b, E_SLOT_MAP;
            if (line >= 0)
                for (int row = 0; row < 8; row++)
                    piece[8 * row + col] = lines[8 * line + row];
        }
    return OK;
}

/* 3. np.rint to int16, into residual block block_res * 6 + block_slot: the
 * sum with 1.5 * 2**52 rounds half to even in the default rounding mode and
 * leaves the integer in the low mantissa bits (|sample| < 2**15, see
 * batch_reconstruct._residual_stacks), without a libm call per sample. */
int64_t round_store(
    const double *piece, int64_t b0, int64_t b1, const int64_t *block_res,
    const int64_t *block_slot, int64_t n_res, int16_t *res6, int64_t *at)
{
    for (int64_t b = b0; b < b1; b++, piece += 64) {
        if (block_res[b] < 0 || block_res[b] >= n_res)
            return *at = b, E_BLOCK_RES;
        if (block_slot[b] < 0 || block_slot[b] >= 6)
            return *at = b, E_BLOCK_SLOT;
        int16_t *dst = res6 + 64 * (block_res[b] * 6 + block_slot[b]);
        for (int i = 0; i < 64; i++) {
            const double shifted = piece[i] + 6755399441055744.0;
            uint64_t bits;
            memcpy(&bits, &shifted, sizeof bits);
            dst[i] = (int16_t)(uint16_t)bits;
        }
    }
    return OK;
}

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

/* 4. Every macroblock of a plan, once per picture: prediction straight from
 * the reference planes into a tile on the stack, the residual of mb_res_row
 * added (none for -1), clipped and stored as three tiles of `out`, each
 * sample of it written once.  An intra macroblock is its clipped residual.
 * Nothing is written unless every row checks out. */
int64_t reconstruct(
    int64_t n_mb, const int64_t *mb_x, const int64_t *mb_y, const uint8_t *mb_intra,
    const uint8_t *mb_dir, const int64_t *mb_mv, const int64_t *mb_res_row,
    const int16_t *res6, int64_t n_res, const frame_t *out, const frame_t *fwd,
    const frame_t *bwd, int64_t *at)
{
    const frame_t *const ref[2] = {fwd, bwd};
    for (int64_t i = 0; i < n_mb; i++) {
        *at = i;
        if (mb_x[i] < 0 || mb_x[i] >= out->width / 16)
            return E_MB_X;
        if (mb_y[i] < 0 || mb_y[i] >= out->height / 16)
            return E_MB_Y;
        if (mb_res_row[i] < -1 || mb_res_row[i] >= n_res)
            return E_RES_ROW;
        if (mb_intra[i])
            continue;
        if (!mb_dir[2 * i] && !mb_dir[2 * i + 1])
            return E_NO_DIRECTION;
        for (int d = 0; d < 2; d++) {
            const int64_t vx = mb_mv[4 * i + 2 * d], vy = mb_mv[4 * i + 2 * d + 1];
            if (!mb_dir[2 * i + d])
                continue;
            if (!ref[d]->plane[0])
                return d ? E_NO_BACKWARD : E_NO_FORWARD;
            if (!inside(mb_x[i] * 16, mb_y[i] * 16, vx, vy, 16, ref[d]->width, ref[d]->height)
                || !inside(mb_x[i] * 8, mb_y[i] * 8, vx / 2, vy / 2, 8, ref[d]->width / 2,
                           ref[d]->height / 2))
                return E_MB_MV;
        }
    }
    for (int64_t i = 0; i < n_mb; i++) {
        const int16_t *res = mb_res_row[i] < 0 ? 0 : res6 + 6 * 64 * mb_res_row[i];
        const uint8_t *dir = mb_dir + 2 * i;
        const int64_t *mv = mb_mv + 4 * i, x = mb_x[i], y = mb_y[i];
        uint8_t tile[3][16 * 16]; /* the prediction: zero for an intra macroblock */
        if (mb_intra[i]) {
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
