/* Neighbor selections of the designed walk over one block of uniforms.
 *
 * The compiled step of privwalk.walk._select, which builds this file with
 * the system C compiler and calls it once per block through ctypes;
 * walk._select_block is its line-for-line Python twin. From the node it
 * walks from, uniform u picks neighbor (int64_t)(u * (double)deg) of its
 * CSR row, and a public pick becomes the next node.
 *
 * Bounds: LabeledGraph accepts only a CSR whose indptr is monotone with
 * indptr[n] == the size of indices, and whose indices lie in 0..n-1. Since
 * u < 1 and deg < 2^53, (int64_t)(u * (double)deg) <= deg - 1, so every
 * pick from a node of nonzero degree reads inside its row; degree 0 is the
 * one guard.
 */
#include <stdint.h>

/* Select with the nu uniforms u until they run out or r samples are done.
 *
 * state[0] is the node the walk moves from and state[1] the samples done;
 * both are updated for the next block. Each selection is written to out,
 * which has room for nu of them. Returns the number written, or -1 when
 * the walk must select from a node of degree 0, which state[0] then holds.
 */
int64_t privwalk_select(const int64_t *indptr, const int64_t *indices,
                        const unsigned char *is_private, const double *u, int64_t nu,
                        int64_t r, int64_t *state, int64_t *out)
{
    int64_t at = state[0], done = state[1], k = 0;
    int64_t lo = indptr[at], deg = indptr[at + 1] - lo;
    while (deg > 0 && done < r && k < nu) {
        int64_t v = indices[lo + (int64_t)(u[k] * (double)deg)];
        out[k++] = v;
        if (!is_private[v]) {
            at = v;
            done++;
            lo = indptr[at];
            deg = indptr[at + 1] - lo;
        }
    }
    state[0] = at;
    state[1] = done;
    return deg == 0 && done < r ? -1 : k;
}
