/* The slice walk, natively: fast_vlc.parse_slice_columns and the slice
 * loop around it, one call per picture.
 *
 * This file is a port, not a second parser.  The Python loop is the
 * specification (and the engine where no compiler is): every check here
 * is one of its checks, in its order, and what is written to the output
 * buffers is exactly what it appends to its lists -- on an error too, up
 * to the point of the error.  No Annex B table is restated: the caller
 * passes fast_vlc's single-symbol LUTs flattened to (symbol, length)
 * arrays and its two stride tables as they are.  The fused tables of the
 * Python loop are not needed -- they answer common cases of the same
 * lookups in one step, which C does not have to save.
 *
 * Memory safety: every read of the picture goes through peek(), which
 * zero-pads and never touches a byte at or past `len`; every write goes
 * through room(), which checks the buffer's capacity.  No state outlives
 * a call and there are no mutable globals, so calls may run concurrently.
 * Built without Python headers (cc -O2 -shared -fPIC), called via ctypes.
 */
#include <stdint.h>

/* the flags column: fast_vlc.MB_* */
enum { MB_INTRA = 1, MB_PATTERN = 2, MB_BACKWARD = 4, MB_FORWARD = 8, MB_QUANT = 16 };
/* the entries encoding: fast_vlc._LEVEL_SHIFT, _DIRECT, _DC, _STRIDE_EOB, _ADDR_ESCAPE */
enum { LEVEL_UNIT = 1 << 17, DIRECT = 1 << 16, DC = 1 << 7, STRIDE_EOB = 32, ADDR_ESCAPE = -1 };
enum { ROW_WIDTH = 7, SKIP_WIDTH = 5, SLICE_WIDTH = 3 };
enum { SLICE_CODE_MIN = 0x01, SLICE_CODE_MAX = 0xAF }; /* constants.SLICE_START_CODE_* */

enum { L_ADDR, L_TYPE, L_MOTION, L_CBP, L_DC_LUMA, L_DC_CHROMA, N_LUTS };
enum { O_ROWS, O_SKIPS, O_MVD, O_ENTRIES, O_SPANS, O_SLICES, N_OUT };
enum { RES_POS = N_OUT, RES_AUX, N_RES };
/* pic[]: the picture's parameters */
enum { P_MB_WIDTH, P_MB_HEIGHT, P_SKIP_FLAGS, P_TABLE_ONE, P_R_SIZE /* four */ };

/* The return value: which of the Python loop's raise sites was reached
 * (native_walk._ERRORS has the exception and message of each). */
enum {
    OK, E_SLICE_ROW, E_SLICE_QUANT, E_SLICE_EXTRA, E_ADDRESS, E_ADDR_CODE,
    E_PAST_END, E_TYPE_CODE, E_QUANT_ZERO, E_MOTION_CODE, E_NEG_SHIFT,
    E_CBP_CODE, E_DC_CODE, E_ESCAPE_ZERO, E_COEFF_CODE, E_CAPACITY
};

typedef struct {
    const int16_t *sym; /* per window of `bits` bits: the symbol ... */
    const uint8_t *len; /* ... and its code's length, 0 where no code matches */
    int64_t bits;
} lut_t;

typedef struct {
    lut_t lut[N_LUTS];        /* L_TYPE: the picture type's */
    const uint8_t *stride[2]; /* fast_vlc._STRIDE_T0, _STRIDE_T1 */
    int64_t esc_prefix, esc_len; /* tables.DCT_ESCAPE_CODE */
} tables_t;

typedef struct {
    const uint8_t *data;
    int64_t len, nbits;
    int64_t *const *buf; /* N_OUT output buffers ... */
    const int64_t *cap;  /* ... their capacities in words ... */
    int64_t *res;        /* ... words written; then RES_POS, RES_AUX */
} walk_t;

/* The `n` bits (1..24) at bit `pos` (>= 0), zero past the end of the data. */
static uint32_t peek(const walk_t *s, int64_t pos, int n)
{
    const int64_t at = pos >> 3;
    uint32_t v = 0;
    if (at + 4 <= s->len) {
        const uint8_t *p = s->data + at;
        v = (uint32_t)p[0] << 24 | (uint32_t)p[1] << 16 | (uint32_t)p[2] << 8 | p[3];
    } else {
        for (int i = 0; i < 4; i++)
            v = v << 8 | (at + i < s->len ? s->data[at + i] : 0);
    }
    return (uint32_t)(v << (pos & 7)) >> (32 - n);
}

/* One single-symbol lookup: the length of the code `window` starts with
 * (0: no code) and, in `*sym`, its symbol. */
static inline int lookup(const lut_t *table, uint32_t window, int *sym)
{
    *sym = table->sym[window];
    return table->len[window];
}

/* Room for `words` more words in buffer `which`, or 0. */
static inline int64_t *room(const walk_t *s, int which, int words)
{
    const int64_t n = s->res[which];
    if (n + words > s->cap[which])
        return 0;
    s->res[which] = n + words;
    return s->buf[which] + n;
}

#define FAIL(code, at, aux) \
    do { s->res[RES_POS] = (at); s->res[RES_AUX] = (aux); return (code); } while (0)
#define PUT(which, value) \
    do { \
        int64_t *slot_ = room(s, (which), 1); \
        if (!slot_) FAIL(E_CAPACITY, pos, (which)); \
        *slot_ = (value); \
    } while (0)
#define PAST_END_CHECK() \
    do { if (pos > s->nbits) FAIL(E_PAST_END, pos, 0); } while (0)

/* One slice's macroblocks from bit `pos` (fast_vlc.parse_slice_columns);
 * `*end` is the bit position after the last one. */
static int walk_slice(const walk_t *s, const tables_t *t, const int64_t *pic,
                      int64_t pos, int64_t row, int64_t qcode, int64_t *end)
{
    const int64_t table_one = pic[P_TABLE_ONE];
    const uint8_t *stride_intra = t->stride[table_one ? 1 : 0];
    int64_t address = row * pic[P_MB_WIDTH] - 1; /* of the macroblock before */
    const int64_t row_start = address + 1, row_end = (row + 1) * pic[P_MB_WIDTH];
    int64_t dirs = 0;
    int len, sym;

    for (;;) {
        const int64_t bit_start = pos;
        /* 23 zero bits: padding and the next start code, or the end of data */
        if (!peek(s, pos, 23)) {
            *end = bit_start;
            return OK;
        }

        /* macroblock_address_increment (section 6.3.16) */
        int64_t increment = 0;
        for (;;) {
            len = lookup(&t->lut[L_ADDR], peek(s, pos, (int)t->lut[L_ADDR].bits), &sym);
            if (!len) FAIL(E_ADDR_CODE, pos, 0);
            pos += len;
            PAST_END_CHECK();
            if (sym != ADDR_ESCAPE) {
                increment += sym;
                break;
            }
            increment += 33;
        }
        if (address + increment >= row_end) FAIL(E_ADDRESS, pos, 0);
        if (increment > 1 && address >= row_start) { /* a skipped run: one record */
            int64_t *skip = room(s, O_SKIPS, SKIP_WIDTH);
            if (!skip) FAIL(E_CAPACITY, pos, O_SKIPS);
            skip[0] = s->res[O_ROWS] / ROW_WIDTH;
            skip[1] = address + 1;
            skip[2] = increment - 1;
            skip[3] = pic[P_SKIP_FLAGS] | dirs;
            skip[4] = qcode;
        }
        address += increment;

        /* macroblock_type, quantiser_scale_code */
        const int64_t body_start = pos;
        len = lookup(&t->lut[L_TYPE], peek(s, pos, (int)t->lut[L_TYPE].bits), &sym);
        if (!len) FAIL(E_TYPE_CODE, pos, 0);
        const int flags = sym;
        pos += len;
        PAST_END_CHECK();
        if (flags & MB_QUANT) {
            qcode = peek(s, pos, 5);
            pos += 5;
            if (!qcode) FAIL(E_QUANT_ZERO, pos, 0);
        }

        /* motion vector deltas (section 7.6.3): forward x, y, backward x, y */
        dirs = flags & (MB_FORWARD | MB_BACKWARD);
        for (int k = dirs & MB_FORWARD ? 0 : 2; k < (dirs & MB_BACKWARD ? 4 : 2); k++) {
            const int r_size = (int)pic[P_R_SIZE + k];
            const uint32_t v = peek(s, pos, 24);
            len = lookup(&t->lut[L_MOTION], v >> (24 - t->lut[L_MOTION].bits), &sym);
            if (!len) FAIL(E_MOTION_CODE, pos, 0);
            int64_t delta = 0;
            if (sym == 0) {
                pos += len;
                /* f_code 0: the object parser's `1 << r_size`, once it has
                 * read the code */
                if (r_size < 0 && pos <= s->nbits) FAIL(E_NEG_SHIFT, pos, 0);
            } else {
                /* ... and Python's own answer to either negative shift */
                if (r_size < 0 || len + r_size > 24) FAIL(E_NEG_SHIFT, pos, 0);
                const int64_t residual =
                    r_size ? (v >> (24 - len - r_size)) & ((1u << r_size) - 1) : 0;
                pos += len + r_size;
                delta = ((int64_t)(sym < 0 ? -sym : sym) - 1) * ((int64_t)1 << r_size)
                        + residual + 1;
                if (sym < 0) delta = -delta;
            }
            PAST_END_CHECK();
            PUT(O_MVD, delta);
        }

        /* blocks: DC differential, then run/level windows to EOB */
        int64_t cbp = 0;
        if (flags & (MB_INTRA | MB_PATTERN)) {
            const int intra = flags & MB_INTRA;
            const uint8_t *stride = t->stride[0];
            if (intra) {
                cbp = 63;
                stride = stride_intra;
                if (table_one) PUT(O_SPANS, s->res[O_ENTRIES]);
            } else {
                len = lookup(&t->lut[L_CBP], peek(s, pos, (int)t->lut[L_CBP].bits), &sym);
                if (!len) FAIL(E_CBP_CODE, pos, 0);
                cbp = sym;
                pos += len;
                PAST_END_CHECK();
            }
            for (int b = 0; b < 6; b++) { /* Y0..Y3, Cb, Cr */
                if (!(cbp & (32 >> b)))
                    continue;
                if (intra) {
                    const lut_t *dc = &t->lut[b < 4 ? L_DC_LUMA : L_DC_CHROMA];
                    const uint32_t v = peek(s, pos, 24);
                    len = lookup(dc, v >> (24 - dc->bits), &sym);
                    if (!len) FAIL(E_DC_CODE, pos, 0);
                    const int size = sym; /* at most 11: len + size <= 21 */
                    len += size;
                    int64_t d = (v >> (24 - len)) & ((1u << size) - 1);
                    if (d < (1 << size >> 1))
                        d -= (1 << size) - 1;
                    pos += len;
                    PAST_END_CHECK();
                    PUT(O_ENTRIES, d * LEVEL_UNIT + (DIRECT | DC | 1));
                } else if (peek(s, pos, 1)) {
                    /* a leading '1' at a non-intra block's first coefficient
                     * is (0, +/-1), next bit the sign (section 7.2.2) */
                    PUT(O_ENTRIES, (peek(s, pos + 1, 1) ? -1 : 1) * LEVEL_UNIT + (DIRECT | 1));
                    pos += 2;
                }
                for (;;) {
                    const uint32_t w = peek(s, pos, 16);
                    PUT(O_ENTRIES, w);
                    const int bits = stride[w];
                    if (bits > STRIDE_EOB) {
                        pos += bits - STRIDE_EOB; /* through the EOB code */
                        break;
                    } else if (bits) {
                        pos += bits;
                    } else if ((int64_t)(w >> (16 - t->esc_len)) == t->esc_prefix) {
                        /* 6-bit prefix, 6-bit run, 12-bit two's-complement level */
                        const uint32_t v = peek(s, pos, 24);
                        int level = v & 0xFFF;
                        if (level >= 2048)
                            level -= 4096;
                        if (!level) FAIL(E_ESCAPE_ZERO, pos, 0);
                        PUT(O_ENTRIES,
                            (int64_t)level * LEVEL_UNIT + (DIRECT | (((v >> 12) & 0x3F) + 1)));
                        pos += 24;
                    } else {
                        FAIL(E_COEFF_CODE, pos, w);
                    }
                }
            }
            if (intra && table_one) PUT(O_SPANS, s->res[O_ENTRIES]);
        }

        int64_t *out = room(s, O_ROWS, ROW_WIDTH);
        if (!out) FAIL(E_CAPACITY, pos, O_ROWS);
        out[0] = address;
        out[1] = flags;
        out[2] = qcode;
        out[3] = cbp;
        out[4] = bit_start;
        out[5] = body_start;
        out[6] = pos;
    }
}

/* The slices of one picture unit from bit `pos`, the first bit after the
 * picture's headers (the loop of MacroblockParser.parse_picture).  `buf`,
 * `cap`: N_OUT buffers and their capacities; `res`: N_RES words. */
int walk_picture(const uint8_t *data, int64_t len, int64_t pos, const tables_t *t,
                 const int64_t *pic, int64_t *const *buf, const int64_t *cap, int64_t *res)
{
    const walk_t walk = {data, len, 8 * len, buf, cap, res}, *s = &walk;
    for (int i = 0; i < N_RES; i++)
        res[i] = 0;
    for (;;) {
        /* the next start code, from the next byte boundary */
        int64_t at = (pos + 7) >> 3;
        while (at + 2 < len && !(data[at] == 0 && data[at + 1] == 0 && data[at + 2] == 1))
            at++;
        if (at + 3 >= len || data[at + 3] < SLICE_CODE_MIN || data[at + 3] > SLICE_CODE_MAX)
            return OK;
        const int64_t row = data[at + 3] - 1;
        if (row >= pic[P_MB_HEIGHT]) FAIL(E_SLICE_ROW, 8 * at, row);
        /* quantiser_scale_code (5 bits), extra_bit_slice; zero past the end */
        const int head = at + 4 < len ? data[at + 4] : 0;
        if (!(head >> 3)) FAIL(E_SLICE_QUANT, 8 * at, 0);
        if (head & 4) FAIL(E_SLICE_EXTRA, 8 * at, 0);
        const int code = walk_slice(s, t, pic, 8 * (at + 4) + 6, row, head >> 3, &pos);
        if (code)
            return code;
        int64_t *slice = room(s, O_SLICES, SLICE_WIDTH);
        if (!slice) FAIL(E_CAPACITY, pos, O_SLICES);
        slice[0] = row;
        slice[1] = head >> 3;
        slice[2] = res[O_ROWS] / ROW_WIDTH;
    }
}
