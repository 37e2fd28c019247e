/* The two compiled steps of privwalk: the walk's neighbor selections over
 * one block of uniforms, and one union-find pass that finds the public
 * clusters of a labeled graph.
 *
 * privwalk.graph._kernels builds this file with the system C compiler once
 * per process and loads it through ctypes. Each function has a
 * line-for-line Python twin, which runs only when that build fails:
 * walk._select_block for privwalk_select and graph._cluster_pass for
 * privwalk_clusters.
 *
 * Bounds: LabeledGraph accepts only a CSR whose indptr is monotone with
 * indptr[n] == the size of indices, and whose indices lie in 0..n-1; the
 * label array and the caller's root and pub_deg arrays hold n entries.
 *
 * privwalk_select: since u < 1 and deg < 2^53,
 * (int64_t)(u * (double)deg) <= deg - 1, so every pick from a node of
 * nonzero degree reads inside its row; degree 0 is the one guard.
 *
 * privwalk_clusters: row v spans indptr[v]..indptr[v + 1] - 1, inside
 * indices, and each entry is a node id, so every label, root and pub_deg
 * read is in range. A find starts only at a public node. A public node's
 * root entry starts as its own id and is only ever lowered, to the id of
 * another public node, so a find never leaves the public nodes' entries,
 * never reads the private marker n, and ends because each step lowers the
 * id.
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

/* The root of public node v's cluster so far, halving the path to it. */
static int64_t find(int64_t *root, int64_t v)
{
    while (root[v] != v) {
        root[v] = root[root[v]];
        v = root[v];
    }
    return v;
}

/* The public clusters of the n-node CSR, as the smallest member of each.
 *
 * Writes root[v], the smallest node of v's public cluster, for every
 * public node v, and n for every private one; and pub_deg[v], the public
 * entries of public row v, with 0 for every private row. Each public
 * entry of a public row joins the row's cluster and the entry's.
 */
void privwalk_clusters(const int64_t *indptr, const int64_t *indices,
                       const unsigned char *is_private, int64_t n,
                       int64_t *root, int64_t *pub_deg)
{
    for (int64_t v = 0; v < n; v++) {
        root[v] = is_private[v] ? n : v;
        pub_deg[v] = 0;
    }
    for (int64_t v = 0; v < n; v++) {
        if (is_private[v])
            continue;
        int64_t a = find(root, v);
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
            int64_t w = indices[i];
            if (is_private[w])
                continue;
            pub_deg[v]++;
            int64_t b = find(root, w);
            if (a < b) {
                root[b] = a;
            } else if (b < a) {
                root[a] = b;
                a = b;
            }
        }
    }
    /* every root entry points at a smaller id, so a forward pass settles it */
    for (int64_t v = 0; v < n; v++)
        if (!is_private[v])
            root[v] = root[root[v]];
}
