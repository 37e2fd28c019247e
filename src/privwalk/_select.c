/* Neighbor selections of the designed walk over one block of uniforms.
 *
 * The compiled runner of privwalk.walk._select; that module builds this
 * file with the system C compiler and calls it once per block through
 * ctypes. It makes the same selections as the Python loop there: from the
 * node it walks from, uniform u picks neighbor (int64_t)(u * (double)deg)
 * of its CSR row, and a public pick becomes the next node.
 */
#include <stdint.h>

/* Select with the nu uniforms u until they run out or r samples are done.
 *
 * state[0] is the node the walk moves from and state[1] the samples done;
 * both are updated for the next block. Each selection is written to out,
 * which has room for nu of them. Returns the number written, or -1 when a
 * pick falls past the end of indices, which a valid CSR allows only from
 * an empty last row.
 */
int64_t privwalk_select(const int64_t *indptr, const int64_t *indices, int64_t nnz,
                        const unsigned char *is_private, const double *u, int64_t nu,
                        int64_t r, int64_t *state, int64_t *out)
{
    int64_t at = state[0], done = state[1], k = 0;
    int64_t lo = indptr[at], deg = indptr[at + 1] - lo;
    while (done < r && k < nu) {
        int64_t j = lo + (int64_t)(u[k] * (double)deg);
        if (j >= nnz)
            return -1;
        int64_t v = indices[j];
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
    return k;
}
