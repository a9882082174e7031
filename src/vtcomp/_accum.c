/* Pinned-order accumulation kernels behind vtcomp.accum.
 *
 * Each function gives, bit for bit, the result of the numpy body of the
 * Python function of the same name: every float64 accumulator starts at 0.0
 * and receives its addends in the same order (tokens ascending for frame
 * sums, channels left to right for reductions).  The compiler may vectorize
 * across independent accumulators, but must never reassociate one
 * accumulator's additions or fuse a multiply into an add, so this file is
 * built with -ffp-contract=off and without -ffast-math.
 *
 * Every array is one flat C-contiguous buffer (a stack of matrices lies
 * back to back); the Python side checks shapes, dtypes and bounds first.
 *
 * On x86-64 glibc builds with GCC or Clang, each entry point also has an AVX2
 * body that runs when the CPU has AVX2 (see kernel_isa); the library itself
 * is built for baseline x86-64, so it loads on any x86-64 host.  The AVX2
 * clones of frame_token_sums and token_reductions compile this same source:
 * AVX2 does not include FMA, so they only add more independent accumulators
 * per instruction.  token_reductions reads each channel row once per pair
 * of pools, every run through one helper.  Both bodies of transpose_tokens
 * walk one loop nest of 8x8 tiles; only the tile differs, an AVX2 shuffle
 * or a portable copy, and both move 32-bit words.  Every other build, and
 * one with -DVTCOMP_BASELINE_ONLY, compiles the baseline bodies alone.
 */

#include <stddef.h>
#include <stdint.h>

/* target_clones needs the loader to resolve ifunc symbols, which glibc
 * does and musl does not. */
#if !defined(VTCOMP_BASELINE_ONLY) && defined(__x86_64__) && defined(__ELF__) \
    && defined(__GLIBC__) && (defined(__GNUC__) || defined(__clang__))
#define VTCOMP_AVX2 1
#include <immintrin.h>
/* One body per ISA, picked once by an ifunc resolver when the symbol is
 * bound. */
#define DISPATCHED __attribute__((target_clones("avx2", "default")))
#else
#define DISPATCHED
#endif

#if defined(__GNUC__) || defined(__clang__)
/* Inlined into each clone, so every clone widens its helpers' loops. */
#define HELPER static inline __attribute__((always_inline))
#else
#define HELPER static
#endif

/* Columns of one reduction tile: its float64 accumulators (the squared
 * norms plus one dot row per pool matrix) stay in L1. */
#define TILE 512

HELPER ptrdiff_t min_pd(ptrdiff_t a, ptrdiff_t b) { return a < b ? a : b; }

/* (frames, tokens, dim) float32 -> (frames, dim) float64, tokens added in
 * ascending order within each frame. */
DISPATCHED
void frame_token_sums(const float *restrict values, ptrdiff_t frames,
                      ptrdiff_t tokens, ptrdiff_t dim, double *restrict sums)
{
    for (ptrdiff_t t = 0; t < frames; t++) {
        const float *frame = values + t * tokens * dim;
        double *acc = sums + t * dim;
        for (ptrdiff_t d = 0; d < dim; d++)
            acc[d] = 0.0;
        ptrdiff_t m = 0;
        for (; m + 4 <= tokens; m += 4) {
            const float *r0 = frame + m * dim, *r1 = r0 + dim, *r2 = r1 + dim, *r3 = r2 + dim;
            for (ptrdiff_t d = 0; d < dim; d++)
                acc[d] = acc[d] + (double)r0[d] + (double)r1[d] + (double)r2[d] + (double)r3[d];
        }
        for (; m < tokens; m++) {
            const float *r0 = frame + m * dim;
            for (ptrdiff_t d = 0; d < dim; d++)
                acc[d] += (double)r0[d];
        }
    }
}

/* Mover of one 8x8 tile: 8 tokens of 8 channels at s (row stride dim) to
 * 8 channels of 8 tokens at d (row stride cols). */
typedef void tile_fn(const uint32_t *restrict s, ptrdiff_t dim, uint32_t *restrict d,
                     ptrdiff_t cols);

/* The baseline tile_fn; constant bounds let the compiler vectorize its stores. */
HELPER void transpose_tile(const uint32_t *restrict s, ptrdiff_t dim,
                           uint32_t *restrict d, ptrdiff_t cols)
{
    for (ptrdiff_t c = 0; c < 8; c++)
        for (ptrdiff_t m = 0; m < 8; m++)
            d[c * cols + m] = s[m * dim + c];
}

/* Frames [start, stop) of (frames, tokens, dim) into channel-major
 * (dim, (stop - start) * tokens), eight tokens at a time across every
 * channel, so the source is read as eight sequential streams.  tile moves
 * each full 8x8 tile; the channel and token tails are copied word by word.
 * Elements move as 32-bit words, so every bit pattern is kept. */
HELPER void transpose_nest(const uint32_t *restrict values, ptrdiff_t tokens,
                           ptrdiff_t dim, ptrdiff_t start, ptrdiff_t stop,
                           uint32_t *restrict out, tile_fn *tile)
{
    ptrdiff_t cols = (stop - start) * tokens;
    ptrdiff_t full_m = tokens - tokens % 8, full_c = dim - dim % 8;
    for (ptrdiff_t t = start; t < stop; t++) {
        const uint32_t *src = values + t * tokens * dim;
        uint32_t *dst = out + (t - start) * tokens;
        for (ptrdiff_t m0 = 0; m0 < full_m; m0 += 8) {
            for (ptrdiff_t c0 = 0; c0 < full_c; c0 += 8)
                tile(src + m0 * dim + c0, dim, dst + c0 * cols + m0, cols);
            for (ptrdiff_t c = full_c; c < dim; c++)
                for (ptrdiff_t m = m0; m < m0 + 8; m++)
                    dst[c * cols + m] = src[m * dim + c];
        }
        for (ptrdiff_t m = full_m; m < tokens; m++)
            for (ptrdiff_t c = 0; c < dim; c++)
                dst[c * cols + m] = src[m * dim + c];
    }
}

#ifdef VTCOMP_AVX2
/* True when the CPU runs AVX2 code; the same test the ifunc resolvers of
 * the DISPATCHED functions make. */
static int has_avx2(void) { return __builtin_cpu_supports("avx2"); }

/* The AVX2 tile_fn: one 8x8 tile in eight 256-bit registers. */
__attribute__((target("avx2"), always_inline))
static inline void transpose_tile_avx2(const uint32_t *restrict s, ptrdiff_t dim,
                                       uint32_t *restrict d, ptrdiff_t cols)
{
    __m256i r0 = _mm256_loadu_si256((const __m256i *)(s + 0 * dim));
    __m256i r1 = _mm256_loadu_si256((const __m256i *)(s + 1 * dim));
    __m256i r2 = _mm256_loadu_si256((const __m256i *)(s + 2 * dim));
    __m256i r3 = _mm256_loadu_si256((const __m256i *)(s + 3 * dim));
    __m256i r4 = _mm256_loadu_si256((const __m256i *)(s + 4 * dim));
    __m256i r5 = _mm256_loadu_si256((const __m256i *)(s + 5 * dim));
    __m256i r6 = _mm256_loadu_si256((const __m256i *)(s + 6 * dim));
    __m256i r7 = _mm256_loadu_si256((const __m256i *)(s + 7 * dim));
    /* Interleave pairs of rows, then pairs of pairs: b_k then holds channels
     * k and k + 4 of tokens 0-3, b_(k+4) the same channels of tokens 4-7. */
    __m256i a0 = _mm256_unpacklo_epi32(r0, r1), a1 = _mm256_unpackhi_epi32(r0, r1);
    __m256i a2 = _mm256_unpacklo_epi32(r2, r3), a3 = _mm256_unpackhi_epi32(r2, r3);
    __m256i a4 = _mm256_unpacklo_epi32(r4, r5), a5 = _mm256_unpackhi_epi32(r4, r5);
    __m256i a6 = _mm256_unpacklo_epi32(r6, r7), a7 = _mm256_unpackhi_epi32(r6, r7);
    __m256i b0 = _mm256_unpacklo_epi64(a0, a2), b1 = _mm256_unpackhi_epi64(a0, a2);
    __m256i b2 = _mm256_unpacklo_epi64(a1, a3), b3 = _mm256_unpackhi_epi64(a1, a3);
    __m256i b4 = _mm256_unpacklo_epi64(a4, a6), b5 = _mm256_unpackhi_epi64(a4, a6);
    __m256i b6 = _mm256_unpacklo_epi64(a5, a7), b7 = _mm256_unpackhi_epi64(a5, a7);
    _mm256_storeu_si256((__m256i *)(d + 0 * cols), _mm256_permute2x128_si256(b0, b4, 0x20));
    _mm256_storeu_si256((__m256i *)(d + 1 * cols), _mm256_permute2x128_si256(b1, b5, 0x20));
    _mm256_storeu_si256((__m256i *)(d + 2 * cols), _mm256_permute2x128_si256(b2, b6, 0x20));
    _mm256_storeu_si256((__m256i *)(d + 3 * cols), _mm256_permute2x128_si256(b3, b7, 0x20));
    _mm256_storeu_si256((__m256i *)(d + 4 * cols), _mm256_permute2x128_si256(b0, b4, 0x31));
    _mm256_storeu_si256((__m256i *)(d + 5 * cols), _mm256_permute2x128_si256(b1, b5, 0x31));
    _mm256_storeu_si256((__m256i *)(d + 6 * cols), _mm256_permute2x128_si256(b2, b6, 0x31));
    _mm256_storeu_si256((__m256i *)(d + 7 * cols), _mm256_permute2x128_si256(b3, b7, 0x31));
}

/* transpose_nest with the AVX2 tile, compiled for AVX2. */
__attribute__((target("avx2")))
static void transpose_tokens_avx2(const uint32_t *restrict values, ptrdiff_t tokens,
                                  ptrdiff_t dim, ptrdiff_t start, ptrdiff_t stop,
                                  uint32_t *restrict out)
{
    transpose_nest(values, tokens, dim, start, stop, out, transpose_tile_avx2);
}
#endif

/* Name of the bodies this host runs: "avx2" or "baseline". */
const char *kernel_isa(void)
{
#ifdef VTCOMP_AVX2
    if (has_avx2())
        return "avx2";
#endif
    return "baseline";
}

/* transpose_nest with this CPU's tile. */
void transpose_tokens(const uint32_t *restrict values, ptrdiff_t tokens,
                      ptrdiff_t dim, ptrdiff_t start, ptrdiff_t stop,
                      uint32_t *restrict out)
{
#ifdef VTCOMP_AVX2
    if (has_avx2()) {
        transpose_tokens_avx2(values, tokens, dim, start, stop, out);
        return;
    }
#endif
    transpose_nest(values, tokens, dim, start, stop, out, transpose_tile);
}

/* Channel rows x[0], x[cols], ..., x[(k - 1) * cols] of a run of n columns,
 * added in channel order to the squared norms sq (when norms is set) and to
 * ndots (0, 1 or 2) dot rows: d0 weighs channel i by w[i], d1 by u[i].
 * Every call passes constant norms, ndots and k, so after inlining each call
 * is its own loop with one load and one store per accumulator; an unused
 * row is passed as NULL. */
HELPER void reduce_run(int norms, int ndots, ptrdiff_t k, double *restrict sq,
                       double *restrict d0, double *restrict d1,
                       const float *restrict x, ptrdiff_t cols,
                       const double *w, const double *u, ptrdiff_t n)
{
    for (ptrdiff_t j = 0; j < n; j++) {
        double s = norms ? sq[j] : 0.0, a = ndots > 0 ? d0[j] : 0.0;
        double b = ndots > 1 ? d1[j] : 0.0;
        for (ptrdiff_t i = 0; i < k; i++) {
            double v = x[i * cols + j];
            s = s + v * v;
            if (ndots > 0)
                a = a + v * w[i];
            if (ndots > 1)
                b = b + v * u[i];
        }
        if (norms)
            sq[j] = s;
        if (ndots > 0)
            d0[j] = a;
        if (ndots > 1)
            d1[j] = b;
    }
}

/* The pairing rule for k channels of one run: the norms go with pools 0
 * and 1 (or the only pool, or alone), every further pool goes in pairs, and
 * an odd last pool alone, so each channel row is read once per pair.  sq,
 * dots and rows point at the run's first column and channel. */
HELPER void reduce_channels(ptrdiff_t k, double *restrict sq, double *restrict dots,
                            const float *restrict x, ptrdiff_t cols, const double *rows,
                            ptrdiff_t stride, ptrdiff_t npools, ptrdiff_t n)
{
    if (npools == 0)
        reduce_run(1, 0, k, sq, NULL, NULL, x, cols, NULL, NULL, n);
    else if (npools == 1)
        reduce_run(1, 1, k, sq, dots, NULL, x, cols, rows, NULL, n);
    else
        reduce_run(1, 2, k, sq, dots, dots + cols, x, cols, rows, rows + stride, n);
    ptrdiff_t p = 2;
    for (; p + 2 <= npools; p += 2)
        reduce_run(0, 2, k, NULL, dots + p * cols, dots + (p + 1) * cols, x, cols,
                   rows + p * stride, rows + (p + 1) * stride, n);
    if (p < npools)
        reduce_run(0, 1, k, NULL, dots + p * cols, NULL, x, cols, rows + p * stride, NULL, n);
}

/* Squared norms and pool dot products of the tokens of frames
 * [start, stop), read from the channel-major block ``cm`` of
 * (dim, (stop - start) * tokens).  ``pools`` is npools (frames, dim) float64
 * matrices back to back; ``sq`` gets (stop - start) * tokens values, ``dots``
 * npools rows of them.  Each accumulator adds channels strictly left to right.
 *
 * Columns go in runs of at most TILE tokens of one frame, so a run shares
 * one pool row and its accumulators stay in L1.  Channels go four at a time,
 * then one at a time, and reduce_channels reads each group once per pair of
 * pools, the norms riding with the first pair. */
DISPATCHED
void token_reductions(const float *restrict cm, ptrdiff_t frames, ptrdiff_t tokens,
                      ptrdiff_t dim, ptrdiff_t start, ptrdiff_t stop,
                      const double *restrict pools, ptrdiff_t npools,
                      double *restrict sq, double *restrict dots)
{
    ptrdiff_t cols = (stop - start) * tokens, stride = frames * dim;
    for (ptrdiff_t t = 0; t < stop - start; t++) {
        const double *rows = pools + (start + t) * dim;  /* frame t's row of pool 0 */
        for (ptrdiff_t j0 = t * tokens; j0 < (t + 1) * tokens; j0 += TILE) {
            ptrdiff_t n = min_pd(j0 + TILE, (t + 1) * tokens) - j0;
            for (ptrdiff_t j = 0; j < n; j++)
                sq[j0 + j] = 0.0;
            for (ptrdiff_t p = 0; p < npools; p++)
                for (ptrdiff_t j = 0; j < n; j++)
                    dots[p * cols + j0 + j] = 0.0;
            ptrdiff_t c = 0;
            for (; c + 4 <= dim; c += 4)
                reduce_channels(4, sq + j0, dots + j0, cm + c * cols + j0, cols, rows + c,
                                stride, npools, n);
            for (; c < dim; c++)
                reduce_channels(1, sq + j0, dots + j0, cm + c * cols + j0, cols, rows + c,
                                stride, npools, n);
        }
    }
}
