/* The three compiled steps of privwalk: the walk's neighbor selections
 * over one block of uniforms, one union-find pass that finds the public
 * clusters of a labeled graph, and the reader of edge and sample files.
 *
 * privwalk.graph._kernels builds this file with the system C compiler once
 * per process and loads it through ctypes; privwalk.graph._run is the one
 * caller of all three functions. Each has a Python twin in graph.py, which
 * _run calls instead only when that build fails: _select_block for
 * privwalk_select and _cluster_pass for privwalk_clusters, each line for
 * line, and _read_none for privwalk_read, which decides no line, so that
 * the line parser of privwalk.ingest reads the whole file.
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
 *
 * privwalk_read: the caller passes the file's size bytes and output
 * arrays of cap entries each; x may be NULL for an edge list, which never
 * writes it. One scan finds a line's tokens and its end, and it checks
 * each index against size before reading there, as it does the one byte
 * looked at past a line's end, the '\n' of a "\r\n". Each token lies
 * between the line's start and end. strtod reads a NUL-terminated copy of
 * a token in a local array of 64 bytes, and a longer token is handed on.
 * A row is written only at k < cap, and a data line that finds k == cap is
 * handed on like an undecided one.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* The value of the token s[0..len) in *out when it is [+-]digits with 1 to
 * 19 digits and lies in int64; otherwise 0. */
static int parse_int(const unsigned char *s, int64_t len, int64_t *out)
{
    int64_t i = len > 0 && (s[0] == '+' || s[0] == '-');
    int neg = i && s[0] == '-';
    uint64_t m = 0;
    if (len - i < 1 || len - i > 19)
        return 0;
    for (; i < len; i++) {
        if (s[i] < '0' || s[i] > '9')
            return 0;
        m = m * 10 + (uint64_t)(s[i] - '0');
    }
    if (m > (uint64_t)INT64_MAX + (uint64_t)neg)
        return 0;
    *out = !neg ? (int64_t)m : m ? -(int64_t)(m - 1) - 1 : 0;
    return 1;
}

/* The index of the first byte of s[i..len) that is not an ASCII digit,
 * or len. */
static int64_t skip_digits(const unsigned char *s, int64_t i, int64_t len)
{
    while (i < len && s[i] >= '0' && s[i] <= '9')
        i++;
    return i;
}

/* The value of the token s[0..len) in *out when it is
 * [+-]digits[.digits][(e|E)[+-]digits] and strtod takes all of it;
 * otherwise 0. */
static int parse_float(const unsigned char *s, int64_t len, double *out)
{
    char copy[64], *end;
    int64_t i = len > 0 && (s[0] == '+' || s[0] == '-'), m;
    int64_t j = skip_digits(s, i, len);
    if (j == len && parse_int(s, len, &m)) {
        *out = (double)m;  /* rounded to nearest, as strtod rounds */
        return 1;
    }
    if (j == i || len >= (int64_t)sizeof copy)
        return 0;
    if (j < len && s[j] == '.') {
        i = j + 1;
        if ((j = skip_digits(s, i, len)) == i)
            return 0;
    }
    if (j < len && (s[j] == 'e' || s[j] == 'E')) {
        i = j + 1 + (j + 1 < len && (s[j + 1] == '+' || s[j + 1] == '-'));
        if ((j = skip_digits(s, i, len)) == i)
            return 0;
    }
    if (j != len)
        return 0;
    memcpy(copy, s, (size_t)len);
    copy[len] = '\0';
    *out = strtod(copy, &end);
    return end == copy + len;  /* a locale whose decimal point is not '.' stops early */
}

/* Read the rows of the file held in buf[0..size) until a line it cannot
 * decide, which is handed on to the line parser.
 *
 * cols is 2 for an edge list: each data line's first two tokens are ids,
 * written to a and b unless they are equal; x is not used. cols is 3 for
 * a sample file: each data line holds id, degree and public degree, after
 * an index that is not read when there are four tokens, written to a, b
 * and x. Each array has room for cap rows.
 *
 * A line is decided when it ends in '\n', "\r\n" or the end of the buffer,
 * and its other bytes are tabs or printable ASCII. It is then skipped when
 * it is blank or its first token starts with '#' or '%', and otherwise read
 * when it is a data line whose values the line parser would take: ids and
 * degrees in int64, and for a sample 0 < public degree <= degree <= 2^53.
 * Any other line is left undecided, since the line parser either rejects it
 * or reads it by rules this reader does not repeat.
 *
 * state[0] is set to the byte offset of the first line not read, size when
 * every line was, and state[1] to its line number, from 1. Returns the
 * number of rows written.
 */
int64_t privwalk_read(const unsigned char *buf, int64_t size, int64_t cols, int64_t cap,
                      int64_t *state, int64_t *a, int64_t *b, double *x)
{
    int64_t at = 0, line = 1, k = 0;
    while (at < size) {
        int64_t end = at, next, start[5], len[5], n = 0;
        /* the tokens, split at tabs and spaces; the first five are kept */
        for (;;) {
            while (end < size && (buf[end] == ' ' || buf[end] == '\t'))
                end++;
            if (end == size || buf[end] < '!' || buf[end] > '~')
                break;
            if (n < 5)
                start[n] = end;
            while (end < size && buf[end] >= '!' && buf[end] <= '~')
                end++;
            if (n < 5)
                len[n] = end - start[n];
            n++;
        }
        if (end == size)
            next = size;
        else if (buf[end] == '\n')
            next = end + 1;
        else if (buf[end] == '\r' && end + 1 < size && buf[end + 1] == '\n')
            next = end + 2;
        else
            break;  /* a byte the line parser must judge */
        if (n > 0 && buf[start[0]] != '#' && buf[start[0]] != '%') {
            int64_t u, v;  /* the two ids of an edge, or a sample's id and degree */
            if (cols == 2) {
                if (n < 2 || !parse_int(buf + start[0], len[0], &u)
                        || !parse_int(buf + start[1], len[1], &v))
                    break;
                if (u != v) {  /* a self-loop is dropped */
                    if (k == cap)
                        break;
                    a[k] = u;
                    b[k++] = v;
                }
            } else {
                int64_t o = n - 3;  /* a fourth token leads: the index */
                double ds;
                if ((n != 3 && n != 4) || !parse_int(buf + start[o], len[o], &u)
                        || !parse_int(buf + start[o + 1], len[o + 1], &v)
                        || !parse_float(buf + start[o + 2], len[o + 2], &ds)
                        || !(v <= (INT64_C(1) << 53) && 0 < ds && ds <= (double)v)
                        || k == cap)
                    break;
                a[k] = u;
                b[k] = v;
                x[k++] = ds;
            }
        }
        at = next;
        line++;
    }
    state[0] = at;
    state[1] = line;
    return k;
}
