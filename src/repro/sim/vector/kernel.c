/* Cycle kernel of the vector backend: endpoints, fabric and detectors.
 *
 * A line-for-line transliteration of the reference engine's per-cycle
 * work over the struct-of-arrays state laid out by
 * repro/sim/vector/state.py:
 *
 *   k_endpoint  the NI sweep (endpoint/interface.py, queues.py,
 *               controller.py): root admission with reply
 *               preallocation, injection loading, memory-controller
 *               select/begin/complete with subordinate instantiation,
 *               consumption and transaction accounting;
 *   k_step      the fabric (network/fabric.py): ejection with delivery
 *               commit, allocation with delivery-slot claims, links;
 *   k_detect    the endpoint DetectorPair state machine
 *               (core/detection.py) for every detector, in build order.
 *
 * Every loop runs for every node and every detector in every cycle, in
 * the reference order, with the reference's round-robin bookkeeping and
 * tie-breaking, and every statistic is accumulated in the same order,
 * so a vector run is bit-identical to a reference run.
 *
 * Two rare recovery actions stay in Python and interleave by
 * suspension: k_endpoint returns the node whose priority (rescue)
 * service just completed, Python runs the completion callback, and
 * k_endpoint(resume=1) continues with that node's controller select;
 * k_detect in DR mode returns a fired detector whose deflection would
 * succeed, Python deflects, and k_detect continues after it.
 *
 * Id spaces:
 *   virtual channel / sender id:  c in [0, NVC)       NVC = L * V
 *   injection sender id:          NVC + node * C + cls
 *   sink encoding in s_sink:      -1 unrouted, < NVC a VC id,
 *                                 >= NVC ejection port of node (id-NVC)
 *   message slot e:               index into the m_* arrays, held from
 *                                 registration to consumption; queues
 *                                 are lists linked through m_next
 *   queue q:                      in (node, cls) = node*C + cls,
 *                                 out = N*C + node*C + cls,
 *                                 source queue of node = 2*N*C + node
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* hdr cells (must match state.py) */
#define H_PN 0       /* pending frontier count */
#define H_OCC 1      /* VC flit occupancy */
#define H_BUSYN 2    /* busy link count */
#define H_ERR 3      /* kernel error code; Python raises */
#define H_MFREE 4    /* head of the free message-slot list */
#define H_MFREEN 5   /* free message slots */
#define H_MEAS 6     /* measurement window open */
#define H_TLOG 7     /* transactions completed this cycle (tlog entries) */
#define H_NEWDET 8   /* detections counted by the last k_detect (NONE) */
#define H_FIRST_DL 9 /* first deadlock cycle, -1 before */
#define H_ND 10      /* registered detectors */
#define H_DSTN 11    /* filled length of the destination store */

/* errors (must match state.py) */
#define ERR_NO_ROUTE 1
#define ERR_MSG_FULL 2

/* int64 counters */
#define C_FORWARDED 0
#define C_INJECTED 1
#define C_EJECTED 2
#define C_ALLOCFAIL 3
#define C_CREATED 4

/* window counters (total at 0, measurement window at 1) */
#define W_DELIVERED 0
#define W_FLITS 1
#define W_LATMAX 2
#define W_CONSUMED 3
#define W_TXNS 4
#define W_DEADLOCKS 5
#define W_UNRESOLVED 6
#define W_ADMITTED 7
#define W_NI 8
#define W_LATSUM 0
#define W_TXNLATSUM 1
#define W_ND 2

/* per-type-name delivery rows */
#define R_DELIVERED 0
#define R_FLITS 1
#define R_RESCUED 2
#define R_NI 3
#define R_LATSUM 0
#define R_QWAIT 1
#define R_NET 2
#define R_ND 3

/* mc_cur sentinels */
#define MC_IDLE -1
#define MC_PRIORITY -2

/* k_detect modes */
#define DET_NONE 1
#define DET_DR 2
#define DET_PR 3

/* staged message fields (k_add_msg / k_enqueue_root) */
enum {
    G_TYPE, G_SRC, G_DST, G_SIZE, G_SHAPE, G_TID, G_CREATED, G_INJECTED,
    G_VCLS, G_HASRES, G_RESCUED, G_SENT, G_CROSSED, G_HOPS, G_BLOCKED,
    G_EJECTED, G_TNEW, G_TOUT, G_TREQ, G_TCREATED, G_NWALK,
    G_N /* then G_NWALK destinations */
};

/* A message's continuation is a shape plus destinations.  The shape
 * (types and nesting) is interned; the destinations of its specs, in
 * the pre-order walk of Scheme.make_reservations, sit in dstore from
 * m_dbase.  A spec at walk position p has its own continuation's walk
 * at p + 1, so subordinates share their parent's destinations.
 * Shape record at sblob + sh_off[shape]:
 *   n, hasreq, rn, nn,
 *   n  x (type, walk pos, child shape)   the specs, in order
 *   rn x (walk pos, qcls)                 reply-reserving specs, in walk order
 *   nn x (out cls, count)                 subordinate output-slot needs */

typedef struct {
    /* dims */
    int32_t L, V, D, N, C, R, ndim, EPCAP, MAXCAND, SCAP, VCLS;
    int32_t QCAP, MAXOUT, SERVICE, SINK, BOFFQ;
    int32_t NVC, STRIDE;
    /* fabric */
    int32_t *s_owner, *s_sink, *s_router;
    int32_t *v_count, *v_hp, *v_flit, *v_arr, *vc_dim, *vc_dateline;
    int32_t *ls_s, *ls_sink, *ls_inj, *ls_n, *l_rr, *busy_order, *busy_in;
    int32_t *ep_s, *ep_n, *ep_rr, *pending, *still, *rk_idx, *rows;
    int32_t *inj_used, *hdr;
    int64_t *cnt;
    /* messages */
    int32_t *m_type, *m_src, *m_dst, *m_dstr, *m_size, *m_shape, *m_dbase;
    int32_t *m_tid;
    int32_t *m_created, *m_injected, *m_vcls, *m_qcls, *m_hasres;
    int32_t *m_rescued, *m_sent, *m_crossed, *m_hops, *m_blocked;
    int32_t *m_ejected, *m_next;
    /* queues */
    int32_t *q_head, *q_tail, *q_len, *q_held, *q_res, *q_ver;
    /* NIs and memory controllers */
    int32_t *node_router, *ni_out;
    int32_t *mc_cur, *mc_incls, *mc_until, *mc_rr, *mc_prio, *mc_pdur;
    int32_t *mc_serviced, *mc_busy;
    /* transactions */
    int32_t *t_out, *t_done, *t_req, *t_created, *tlog;
    /* message types and continuations */
    int32_t *ty_qcls, *ty_vcls, *ty_res, *ty_flits, *ty_row;
    int32_t *sh_off, *sblob, *dstore;
    /* detectors */
    int32_t *d_node, *d_inq, *d_outq, *d_incls, *d_thr, *d_full, *d_req;
    int32_t *d_since, *d_counted, *fired;
    int64_t *d_lastver;
    double *d_occthr;
    /* statistics */
    int64_t *st_i;
    double *st_d;
    int64_t *r_i;
    double *r_d;
    int32_t *stage;
} KState;

void *k_new(const int32_t *dims)
{
    KState *k = (KState *)calloc(1, sizeof(KState));
    if (!k)
        return NULL;
    int i = 0;
    k->L = dims[i++];
    k->V = dims[i++];
    k->D = dims[i++];
    k->N = dims[i++];
    k->C = dims[i++];
    k->R = dims[i++];
    k->ndim = dims[i++];
    k->EPCAP = dims[i++];
    k->MAXCAND = dims[i++];
    k->SCAP = dims[i++];
    k->VCLS = dims[i++];
    k->QCAP = dims[i++];
    k->MAXOUT = dims[i++];
    k->SERVICE = dims[i++];
    k->SINK = dims[i++];
    k->BOFFQ = dims[i++];
    k->NVC = k->L * k->V;
    k->STRIDE = 2 + k->MAXCAND;
    return k;
}

/* (Re)bind every state array; called at build and after Python grows a
 * table.  The order must match state.py's _ARRAYS. */
void k_bind(void *h, const int64_t *ptrs)
{
    KState *k = (KState *)h;
    int i = 0;
#define B(f) k->f = (void *)(intptr_t)ptrs[i++]
    B(s_owner); B(s_sink); B(s_router);
    B(v_count); B(v_hp); B(v_flit); B(v_arr); B(vc_dim); B(vc_dateline);
    B(ls_s); B(ls_sink); B(ls_inj); B(ls_n); B(l_rr); B(busy_order);
    B(busy_in);
    B(ep_s); B(ep_n); B(ep_rr); B(pending); B(still); B(rk_idx); B(rows);
    B(inj_used); B(hdr); B(cnt);
    B(m_type); B(m_src); B(m_dst); B(m_dstr); B(m_size); B(m_shape);
    B(m_dbase);
    B(m_tid); B(m_created); B(m_injected); B(m_vcls); B(m_qcls);
    B(m_hasres); B(m_rescued); B(m_sent); B(m_crossed); B(m_hops);
    B(m_blocked); B(m_ejected); B(m_next);
    B(q_head); B(q_tail); B(q_len); B(q_held); B(q_res); B(q_ver);
    B(node_router); B(ni_out);
    B(mc_cur); B(mc_incls); B(mc_until); B(mc_rr); B(mc_prio); B(mc_pdur);
    B(mc_serviced); B(mc_busy);
    B(t_out); B(t_done); B(t_req); B(t_created); B(tlog);
    B(ty_qcls); B(ty_vcls); B(ty_res); B(ty_flits); B(ty_row);
    B(sh_off); B(sblob); B(dstore);
    B(d_node); B(d_inq); B(d_outq); B(d_incls); B(d_thr); B(d_full);
    B(d_req); B(d_since); B(d_counted); B(fired); B(d_lastver);
    B(d_occthr);
    B(st_i); B(st_d); B(r_i); B(r_d); B(stage);
#undef B
}

void k_free(void *h)
{
    free(h);
}

/* --------------------------------------------------------------------
 * Message slots and queues (endpoint/queues.py).
 * ------------------------------------------------------------------ */

static int32_t alloc_msg(KState *k)
{
    int32_t e = k->hdr[H_MFREE];
    if (e < 0) {
        k->hdr[H_ERR] = ERR_MSG_FULL;
        return -1;
    }
    k->hdr[H_MFREE] = k->m_next[e];
    k->hdr[H_MFREEN]--;
    return e;
}

void k_free_msg(void *h, int32_t e)
{
    KState *k = (KState *)h;
    k->m_next[e] = k->hdr[H_MFREE];
    k->hdr[H_MFREE] = e;
    k->hdr[H_MFREEN]++;
}

/* append; the version bump is MessageQueue.push/commit/push_held's */
void k_qpush(void *h, int32_t q, int32_t e)
{
    KState *k = (KState *)h;
    k->m_next[e] = -1;
    if (k->q_len[q])
        k->m_next[k->q_tail[q]] = e;
    else
        k->q_head[q] = e;
    k->q_tail[q] = e;
    k->q_len[q]++;
    k->q_ver[q]++;
}

/* pop the head (MessageQueue.pop); returns its slot */
int32_t k_qpop(void *h, int32_t q)
{
    KState *k = (KState *)h;
    int32_t e = k->q_head[q];
    k->q_head[q] = k->m_next[e];
    k->q_len[q]--;
    k->q_ver[q]++;
    return e;
}

static inline int32_t q_free(const KState *k, int32_t q)
{
    return k->QCAP - k->q_len[q] - k->q_held[q] - k->q_res[q];
}

/* A message slot filled from the staged fields (Python registration). */
int32_t k_add_msg(void *h)
{
    KState *k = (KState *)h;
    int32_t e = alloc_msg(k);
    if (e < 0)
        return -1;
    const int32_t *g = k->stage;
    int32_t type = g[G_TYPE];
    k->m_type[e] = type;
    k->m_src[e] = g[G_SRC];
    k->m_dst[e] = g[G_DST];
    k->m_dstr[e] = k->node_router[g[G_DST]];
    k->m_size[e] = g[G_SIZE];
    k->m_shape[e] = g[G_SHAPE];
    k->m_dbase[e] = k->hdr[H_DSTN];
    memcpy(k->dstore + k->hdr[H_DSTN], g + G_N,
           (size_t)g[G_NWALK] * sizeof(int32_t));
    k->hdr[H_DSTN] += g[G_NWALK];
    k->m_tid[e] = g[G_TID];
    if (g[G_TNEW]) { /* first message of a transaction: register it */
        int32_t tid = g[G_TID];
        k->t_out[tid] = g[G_TOUT];
        k->t_done[tid] = 0;
        k->t_req[tid] = g[G_TREQ];
        k->t_created[tid] = g[G_TCREATED];
    }
    k->m_created[e] = g[G_CREATED];
    k->m_injected[e] = g[G_INJECTED];
    k->m_vcls[e] = g[G_VCLS];
    k->m_qcls[e] = k->ty_qcls[type];
    k->m_hasres[e] = g[G_HASRES];
    k->m_rescued[e] = g[G_RESCUED];
    k->m_sent[e] = g[G_SENT];
    k->m_crossed[e] = g[G_CROSSED];
    k->m_hops[e] = g[G_HOPS];
    k->m_blocked[e] = g[G_BLOCKED];
    k->m_ejected[e] = g[G_EJECTED];
    return e;
}

/* NetworkInterface.enqueue_root: count, register, append to the source
 * queue.  Returns the slot (or -1: table full, H_ERR set). */
int32_t k_enqueue_root(void *h, int32_t node)
{
    KState *k = (KState *)h;
    int32_t e = k_add_msg(h);
    if (e < 0)
        return -1;
    k->cnt[C_CREATED]++;
    k_qpush(h, 2 * k->N * k->C + node, e);
    return e;
}

/* --------------------------------------------------------------------
 * Statistics (sim/stats.py SimStats hooks).
 * ------------------------------------------------------------------ */

static inline int32_t live_windows(const KState *k)
{
    return k->hdr[H_MEAS] ? 2 : 1;
}

static void on_delivered(KState *k, int32_t e, int32_t now)
{
    int32_t created = k->m_created[e];
    int32_t latency = now - created;
    int32_t row = k->ty_row[k->m_type[e]];
    int64_t *ri = k->r_i + (int64_t)row * R_NI;
    double *rd = k->r_d + (int64_t)row * R_ND;
    int32_t size = k->m_size[e];
    ri[R_DELIVERED]++;
    ri[R_FLITS] += size;
    rd[R_LATSUM] += latency;
    int32_t entered = k->m_injected[e] >= 0 ? k->m_injected[e] : created;
    rd[R_QWAIT] += entered - created;
    rd[R_NET] += now - entered;
    if (k->m_rescued[e])
        ri[R_RESCUED]++;
    for (int32_t w = 0, nw = live_windows(k); w < nw; w++) {
        int64_t *wi = k->st_i + w * W_NI;
        wi[W_DELIVERED]++;
        wi[W_FLITS] += size;
        k->st_d[w * W_ND + W_LATSUM] += latency;
        if (latency > wi[W_LATMAX])
            wi[W_LATMAX] = latency;
    }
}

/* MemoryController._account_consumption + on_transaction_complete */
static void consume(KState *k, int32_t e, int32_t now)
{
    int32_t nw = live_windows(k);
    for (int32_t w = 0; w < nw; w++)
        k->st_i[w * W_NI + W_CONSUMED]++;
    int32_t tid = k->m_tid[e];
    if (tid < 0)
        return;
    k->t_out[tid]--;
    if (k->t_out[tid] == 0 && !k->t_done[tid]) {
        k->t_done[tid] = 1;
        k->tlog[k->hdr[H_TLOG]++] = tid;
        k->ni_out[k->t_req[tid]]--;
        int32_t latency = now - k->t_created[tid];
        for (int32_t w = 0; w < nw; w++) {
            k->st_i[w * W_NI + W_TXNS]++;
            k->st_d[w * W_ND + W_TXNLATSUM] += latency;
        }
    }
}

static void on_deadlock(KState *k, int32_t now, int32_t field)
{
    if (k->hdr[H_FIRST_DL] < 0)
        k->hdr[H_FIRST_DL] = now;
    for (int32_t w = 0, nw = live_windows(k); w < nw; w++)
        k->st_i[w * W_NI + field]++;
}

/* --------------------------------------------------------------------
 * Endpoint policy (core/schemes.py Scheme.make_reservations).
 * ------------------------------------------------------------------ */

static inline const int32_t *shape_of(const KState *k, int32_t e)
{
    return k->sblob + k->sh_off[k->m_shape[e]];
}

/* Reserve one input slot per reply-class spec of message `e`'s
 * continuation destined to `node`, all or nothing; `vacating` is the
 * queue whose head the same action consumes (its slot may back one
 * reservation), or -1. */
static int make_reservations(KState *k, int32_t node, int32_t e,
                             int32_t vacating)
{
    const int32_t *sh = shape_of(k, e);
    int32_t rn = sh[2];
    if (rn == 0)
        return 1;
    const int32_t *rs = sh + 4 + 3 * sh[0];
    const int32_t *dst = k->dstore + k->m_dbase[e];
    const int32_t base = node * k->C;
    for (int32_t j = 0; j < rn; j++) {
        if (dst[rs[2 * j]] != node)
            continue;
        int32_t q = base + rs[2 * j + 1];
        if (q_free(k, q) + (q == vacating) > 0) {
            k->q_res[q]++;
        } else {
            for (int32_t i = 0; i < j; i++)
                if (dst[rs[2 * i]] == node)
                    k->q_res[base + rs[2 * i + 1]]--;
            return 0;
        }
    }
    return 1;
}

static void release_reservations(KState *k, int32_t node, int32_t e)
{
    const int32_t *sh = shape_of(k, e);
    const int32_t *rs = sh + 4 + 3 * sh[0];
    const int32_t *dst = k->dstore + k->m_dbase[e];
    for (int32_t j = 0; j < sh[2]; j++)
        if (dst[rs[2 * j]] == node)
            k->q_res[node * k->C + rs[2 * j + 1]]--;
}

/* --------------------------------------------------------------------
 * The NI sweep (NetworkInterface.step, MemoryController.step).
 * ------------------------------------------------------------------ */

static void admit_roots(KState *k, int32_t node, int32_t now)
{
    const int32_t N = k->N, C = k->C;
    int32_t src = 2 * N * C + node;
    while (k->q_len[src]) {
        int32_t e = k->q_head[src];
        if (k->ni_out[node] >= k->MAXOUT)
            return;
        int32_t oq = N * C + node * C + k->m_qcls[e];
        if (q_free(k, oq) <= 0)
            return;
        /* R1: preallocate reply slots before letting the request loose */
        if (!make_reservations(k, node, e, -1))
            return;
        k_qpop(k, src);
        k->m_vcls[e] = k->ty_vcls[k->m_type[e]];
        k->m_hasres[e] = 0;
        k_qpush(k, oq, e);
        k->ni_out[node]++;
        for (int32_t w = 0, nw = live_windows(k); w < nw; w++)
            k->st_i[w * W_NI + W_ADMITTED]++;
    }
}

static void start_injection(KState *k, int32_t sid, int32_t e, int32_t now)
{
    k->m_injected[e] = now;
    k->m_blocked[e] = now;
    k->s_owner[sid] = e;
    k->s_sink[sid] = -1;
    k->pending[k->hdr[H_PN]++] = sid;
}

static int try_begin(KState *k, int32_t node, int32_t cls, int32_t now)
{
    const int32_t N = k->N, C = k->C;
    int32_t q = node * C + cls;
    int32_t e = k->q_head[q];
    if (e < 0)
        return 0;
    const int32_t *sh = shape_of(k, e);
    int32_t n = sh[0];
    if (n) {
        /* claim output slots for every subordinate, grouped by class */
        const int32_t *need = sh + 4 + 3 * n + 2 * sh[2];
        int32_t nn = sh[3], j, c = 0, ok = 1;
        for (j = 0; j < nn && ok; j++) {
            int32_t oq = N * C + node * C + need[2 * j];
            for (c = 0; c < need[2 * j + 1]; c++) {
                if (q_free(k, oq) > 0) {
                    k->q_held[oq]++;
                } else {
                    ok = 0;
                    break;
                }
            }
        }
        /* R2: MSHR preallocation; the head's own slot may back one */
        if (ok)
            ok = make_reservations(k, node, e, q);
        if (!ok) {
            /* release exactly the holds made: classes before the last
             * one tried in full, the last one `c` times */
            int32_t last = j - 1;
            for (int32_t i = 0; i < last; i++)
                k->q_held[N * C + node * C + need[2 * i]] -= need[2 * i + 1];
            k->q_held[N * C + node * C + need[2 * last]] -=
                (c < need[2 * last + 1]) ? c : need[2 * last + 1];
            return 0;
        }
    }
    k_qpop(k, q);
    k->mc_cur[node] = e;
    k->mc_incls[node] = cls;
    k->mc_until[node] = now + (n ? k->SERVICE : k->SINK);
    return 1;
}

static void mc_select(KState *k, int32_t node, int32_t now)
{
    if (k->mc_prio[node]) {
        k->mc_cur[node] = MC_PRIORITY;
        k->mc_incls[node] = -1;
        k->mc_until[node] = now + k->mc_pdur[node];
        return;
    }
    const int32_t n = k->C;
    int32_t rr = k->mc_rr[node];
    for (int32_t i = 0; i < n; i++) {
        int32_t cls = rr + i;
        if (cls >= n)
            cls -= n;
        if (k->q_len[node * n + cls] && try_begin(k, node, cls, now)) {
            k->mc_rr[node] = (cls + 1) % n;
            return;
        }
    }
}

/* Non-priority completion: subordinates into their held output slots,
 * then consumption accounting; the serviced message's slot is freed. */
static void mc_complete(KState *k, int32_t node, int32_t now)
{
    const int32_t N = k->N, C = k->C;
    int32_t e = k->mc_cur[node];
    k->mc_cur[node] = MC_IDLE;
    k->mc_incls[node] = -1;
    k->mc_serviced[node]++;
    const int32_t *sh = shape_of(k, e);
    const int32_t dbase = k->m_dbase[e];
    for (int32_t i = 0, n = sh[0]; i < n; i++) {
        const int32_t *sp = sh + 4 + 3 * i;
        int32_t type = sp[0], dst = k->dstore[dbase + sp[1]];
        int32_t s = alloc_msg(k);
        if (s < 0)
            return;
        k->m_type[s] = type;
        k->m_src[s] = node;
        k->m_dst[s] = dst;
        k->m_dstr[s] = k->node_router[dst];
        k->m_size[s] = k->ty_flits[type];
        k->m_shape[s] = sp[2];
        k->m_dbase[s] = dbase + sp[1] + 1;
        k->m_tid[s] = k->m_tid[e];
        k->m_created[s] = now;
        k->m_injected[s] = -1;
        k->m_vcls[s] = k->ty_vcls[type];
        k->m_qcls[s] = k->ty_qcls[type];
        k->m_hasres[s] = k->ty_res[type];
        k->m_rescued[s] = 0;
        k->m_sent[s] = 0;
        k->m_crossed[s] = 0;
        k->m_hops[s] = 0;
        k->m_blocked[s] = -1;
        k->m_ejected[s] = 0;
        k->cnt[C_CREATED]++;
        int32_t oq = N * C + node * C + k->ty_qcls[type];
        k->q_held[oq]--; /* push_held */
        k_qpush(k, oq, s);
    }
    consume(k, e, now);
    k_free_msg(k, e);
}

/* One cycle's NI sweep from `start`.  Returns -1 when every node has
 * stepped, or the node whose priority service just completed (its
 * messages_serviced already counted); Python runs the completion and
 * calls again with resume=1, which continues with that node's select. */
int32_t k_endpoint(void *h, int32_t now, int32_t start, int32_t resume)
{
    KState *k = (KState *)h;
    const int32_t N = k->N, C = k->C, NVC = k->NVC;
    if (!resume)
        k->hdr[H_TLOG] = 0;
    for (int32_t node = start; node < N; node++) {
        if (resume) {
            resume = 0;
        } else {
            if (k->q_len[2 * N * C + node])
                admit_roots(k, node, now);
            for (int32_t cls = 0; cls < C; cls++) {
                int32_t sid = NVC + node * C + cls;
                int32_t oq = N * C + node * C + cls;
                if (k->s_owner[sid] < 0 && k->q_len[oq])
                    start_injection(k, sid, k_qpop(k, oq), now);
            }
            if (k->mc_cur[node] != MC_IDLE) {
                k->mc_busy[node]++;
                if (now >= k->mc_until[node]) {
                    if (k->mc_cur[node] == MC_PRIORITY) {
                        k->mc_cur[node] = MC_IDLE;
                        k->mc_serviced[node]++;
                        return node;
                    }
                    mc_complete(k, node, now);
                }
            }
        }
        if (k->mc_cur[node] == MC_IDLE)
            mc_select(k, node, now);
    }
    return -1;
}

/* --------------------------------------------------------------------
 * Fabric phase 1: ejection — one flit per active port, node-ascending,
 * committing delivered messages.  Mirrors Fabric._phase_eject +
 * EjectionPort.step + NetworkInterface.deliver.
 * ------------------------------------------------------------------ */
static void k_eject(KState *k, int32_t now)
{
    const int32_t NVC = k->NVC, D = k->D, EPCAP = k->EPCAP, C = k->C;
    for (int32_t node = 0; node < k->N; node++) {
        int32_t n = k->ep_n[node];
        if (n == 0)
            continue;
        int32_t *eps = k->ep_s + (int64_t)node * EPCAP;
        int32_t start = k->ep_rr[node] % n;
        for (int32_t i = 0; i < n; i++) {
            int32_t idx = start + i;
            if (idx >= n)
                idx -= n;
            int32_t sid = eps[idx];
            int32_t vid = k->s_owner[sid];
            int32_t flit;
            if (sid >= NVC) { /* injection channel delivering locally */
                flit = k->m_sent[vid];
                if (flit >= k->m_size[vid])
                    continue;
                k->m_sent[vid] = flit + 1;
            } else {
                if (k->v_count[sid] == 0)
                    continue;
                int32_t p = k->v_hp[sid];
                if (k->v_arr[(int64_t)sid * D + p] >= now)
                    continue;
                flit = k->v_flit[(int64_t)sid * D + p];
                k->v_hp[sid] = (p + 1 == D) ? 0 : p + 1;
                k->v_count[sid]--;
                k->hdr[H_OCC]--;
            }
            k->cnt[C_EJECTED]++;
            k->m_ejected[vid]++;
            if (flit == k->m_size[vid] - 1) { /* tail: delivered */
                k->s_owner[sid] = -1;
                k->s_sink[sid] = -1;
                n--;
                for (int32_t j = idx; j < n; j++)
                    eps[j] = eps[j + 1];
                k->ep_n[node] = n;
                /* commit the held slot, then the delivery statistics */
                int32_t q = node * C + k->m_qcls[vid];
                k->q_held[q]--;
                k_qpush(k, q, vid);
                on_delivered(k, vid, now);
            }
            /* post-removal length, exactly as EjectionPort.step */
            {
                int32_t m = k->ep_n[node];
                k->ep_rr[node] = (start + i + 1) % (m > 0 ? m : 1);
            }
            break; /* one flit per port per cycle */
        }
    }
}

/* --------------------------------------------------------------------
 * Fabric phase 2: allocation — route/VC allocation or delivery-slot
 * claim (MessageQueue.try_claim_slot) for every frontier.  Mirrors
 * Fabric._phase_allocate.  Returns 0, or ERR_NO_ROUTE for a key the
 * route table lacks (the table is complete; this is a build defect).
 * ------------------------------------------------------------------ */
static int32_t k_alloc(KState *k, int32_t now)
{
    const int32_t NVC = k->NVC, V = k->V, C = k->C, EPCAP = k->EPCAP;
    const int32_t R = k->R, VCLS = k->VCLS, ndim = k->ndim;
    const int32_t STRIDE = k->STRIDE;
    int32_t pn = k->hdr[H_PN];
    int32_t sn = 0;
    for (int32_t i = 0; i < pn; i++) {
        int32_t sid = k->pending[i];
        int32_t vid = k->s_owner[sid];
        if (vid < 0)
            continue; /* rescued or otherwise detached meanwhile */
        if (k->s_sink[sid] >= 0)
            continue; /* already routed */
        int32_t dstr = k->m_dstr[vid];
        int32_t r = k->s_router[sid];
        if (r == dstr) {
            int32_t node = k->m_dst[vid];
            int32_t q = node * C + k->m_qcls[vid];
            int32_t ok = 1;
            if (k->m_hasres[vid] && k->q_res[q] > 0) {
                k->q_res[q]--;
                k->q_held[q]++;
            } else if (q_free(k, q) > 0) {
                k->q_held[q]++;
            } else {
                ok = 0;
            }
            if (ok) {
                k->ep_s[(int64_t)node * EPCAP + k->ep_n[node]] = sid;
                k->ep_n[node]++;
                k->s_sink[sid] = NVC + node;
                k->m_blocked[vid] = -1;
                continue;
            }
        } else {
            int32_t key = (((r * R + dstr) * VCLS + k->m_vcls[vid]) << ndim)
                          | k->m_crossed[vid];
            int32_t row = k->rk_idx[key];
            if (row < 0)
                return ERR_NO_ROUTE;
            const int32_t *rp = k->rows + (int64_t)row * STRIDE;
            int32_t na = rp[0], esc = rp[1];
            /* first free adaptive candidate with minimal buffered flits
             * (== the reference's stable sort by fifo length) */
            int32_t best = -1, bc = 0x7fffffff;
            for (int32_t j = 0; j < na; j++) {
                int32_t c = rp[2 + j];
                if (k->s_owner[c] < 0) {
                    int32_t cc = k->v_count[c];
                    if (cc < bc) {
                        bc = cc;
                        best = c;
                    }
                }
            }
            if (best < 0 && esc >= 0 && k->s_owner[esc] < 0)
                best = esc;
            if (best >= 0) {
                k->s_owner[best] = vid;
                k->s_sink[sid] = best;
                int32_t lid = best / V;
                int32_t pos = lid * V + k->ls_n[lid];
                k->ls_s[pos] = sid;
                k->ls_sink[pos] = best;
                k->ls_inj[pos] = (sid >= NVC);
                k->ls_n[lid]++;
                if (!k->busy_in[lid]) {
                    k->busy_in[lid] = 1;
                    k->busy_order[k->hdr[H_BUSYN]++] = lid;
                }
                k->m_blocked[vid] = -1;
                continue;
            }
        }
        /* blocked: stamp the start of the blocked episode */
        if (k->m_blocked[vid] < 0)
            k->m_blocked[vid] = now;
        k->cnt[C_ALLOCFAIL]++;
        k->still[sn++] = sid;
    }
    /* rotate for fairness, exactly as the reference */
    if (sn > 1) {
        int32_t tmp = k->still[0];
        memmove(k->still, k->still + 1, (size_t)(sn - 1) * sizeof(int32_t));
        k->still[sn - 1] = tmp;
    }
    memcpy(k->pending, k->still, (size_t)sn * sizeof(int32_t));
    k->hdr[H_PN] = sn;
    return 0;
}

/* --------------------------------------------------------------------
 * Fabric phase 3: link traversal — one flit per busy link, round-robin.
 * Mirrors Fabric._phase_links.
 * ------------------------------------------------------------------ */
static void k_links(KState *k, int32_t now)
{
    const int32_t NVC = k->NVC, V = k->V, D = k->D, C = k->C;
    memset(k->inj_used, 0, (size_t)k->N * sizeof(int32_t));
    int32_t busyn = k->hdr[H_BUSYN];
    int64_t forwarded = 0, injected = 0;
    for (int32_t b = 0; b < busyn; b++) {
        int32_t lid = k->busy_order[b];
        int32_t n = k->ls_n[lid];
        if (n == 0) {
            k->busy_in[lid] = 0;
            continue;
        }
        int32_t *lss = k->ls_s + lid * V;
        int32_t *lssink = k->ls_sink + lid * V;
        int32_t *lsinj = k->ls_inj + lid * V;
        int32_t start = k->l_rr[lid] % n;
        for (int32_t i = 0; i < n; i++) {
            int32_t idx = start + i;
            if (idx >= n)
                idx -= n;
            int32_t sink = lssink[idx];
            if (k->v_count[sink] >= D)
                continue; /* sink full */
            int32_t sid = lss[idx];
            int32_t vid = k->s_owner[sid];
            int32_t flit;
            if (lsinj[idx]) {
                flit = k->m_sent[vid];
                if (flit >= k->m_size[vid])
                    continue;
                int32_t node = (sid - NVC) / C;
                if (k->inj_used[node])
                    continue;
                k->inj_used[node] = 1;
                k->m_sent[vid] = flit + 1;
                injected++;
            } else {
                if (k->v_count[sid] == 0)
                    continue;
                int32_t p = k->v_hp[sid];
                if (k->v_arr[(int64_t)sid * D + p] >= now)
                    continue; /* one-cycle minimum per hop */
                flit = k->v_flit[(int64_t)sid * D + p];
                k->v_hp[sid] = (p + 1 == D) ? 0 : p + 1;
                k->v_count[sid]--;
                k->hdr[H_OCC]--;
            }
            /* accept into the sink ring */
            {
                int32_t c = k->v_count[sink];
                int32_t q = k->v_hp[sink] + c;
                if (q >= D)
                    q -= D;
                k->v_flit[(int64_t)sink * D + q] = flit;
                k->v_arr[(int64_t)sink * D + q] = now;
                k->v_count[sink] = c + 1;
                k->hdr[H_OCC]++;
            }
            forwarded++;
            if (flit == 0) {
                /* header advanced one hop: dateline state + new frontier */
                k->m_hops[vid]++;
                if (k->vc_dateline[sink])
                    k->m_crossed[vid] |= 1 << k->vc_dim[sink];
                k->pending[k->hdr[H_PN]++] = sink;
                k->m_blocked[vid] = now;
            }
            if (flit == k->m_size[vid] - 1) {
                /* tail departed: free the sender behind the packet */
                n--;
                for (int32_t j = idx; j < n; j++) {
                    lss[j] = lss[j + 1];
                    lssink[j] = lssink[j + 1];
                    lsinj[j] = lsinj[j + 1];
                }
                k->ls_n[lid] = n;
                k->s_owner[sid] = -1;
                k->s_sink[sid] = -1;
                if (n > 0) {
                    k->l_rr[lid] = (idx < n) ? idx : 0;
                } else {
                    k->l_rr[lid] = 0;
                    k->busy_in[lid] = 0;
                }
            } else {
                k->l_rr[lid] = (idx + 1 < n) ? idx + 1 : 0;
            }
            break; /* one flit per link per cycle */
        }
    }
    k->cnt[C_FORWARDED] += forwarded;
    k->cnt[C_INJECTED] += injected;
    /* compact busy_order, preserving first-busy order */
    {
        int32_t w = 0;
        for (int32_t b = 0; b < busyn; b++) {
            int32_t lid = k->busy_order[b];
            if (k->busy_in[lid])
                k->busy_order[w++] = lid;
        }
        k->hdr[H_BUSYN] = w;
    }
}

/* Eject, allocate and link; returns 0 or a kernel error code. */
int32_t k_step(void *h, int32_t now)
{
    KState *k = (KState *)h;
    k_eject(k, now);
    int32_t err = k_alloc(k, now);
    if (err)
        return err;
    k_links(k, now);
    return k->hdr[H_ERR];
}

/* --------------------------------------------------------------------
 * Detection: DetectorPair.step for every detector, in build order.
 * ------------------------------------------------------------------ */

static int det_step(KState *k, int32_t d, int32_t now)
{
    int32_t inq = k->d_inq[d], outq = k->d_outq[d];
    int64_t version = (int64_t)k->q_ver[inq] + k->q_ver[outq];
    if (version != k->d_lastver[d]) {
        k->d_since[d] = now;
        k->d_lastver[d] = version;
        k->d_counted[d] = 0;
        return 0;
    }
    int32_t node = k->d_node[d];
    int cond;
    if (k->mc_cur[node] != MC_IDLE && k->mc_incls[node] == k->d_incls[d]) {
        cond = 0;
    } else {
        if (k->d_full[d]) {
            cond = q_free(k, inq) <= 0 && q_free(k, outq) <= 0;
        } else {
            double thr = k->d_occthr[d] * k->QCAP;
            cond = (k->q_len[inq] + k->q_held[inq]) >= thr
                   && (k->q_len[outq] + k->q_held[outq]) >= thr;
        }
        if (cond) { /* _head_eligible */
            int32_t head = k->q_head[inq];
            if (k->q_len[inq] == 0) {
                cond = 0;
            } else {
                const int32_t *sh = shape_of(k, head);
                cond = sh[0] > 0 && (!k->d_req[d] || sh[1]);
            }
        }
    }
    if (!cond) {
        k->d_since[d] = now;
        k->d_counted[d] = 0;
        return 0;
    }
    return (now - k->d_since[d]) > k->d_thr[d];
}

/* Would DeflectionController._try_deflect succeed for detector `d`?
 * Its guards, evaluated with the reservations rolled back. */
static int dr_can_deflect(KState *k, int32_t d)
{
    int32_t inq = k->d_inq[d];
    if (k->q_len[inq] == 0)
        return 0;
    int32_t head = k->q_head[inq];
    const int32_t *sh = shape_of(k, head);
    if (sh[0] == 0 || !sh[1])
        return 0;
    int32_t node = k->d_node[d];
    if (q_free(k, k->N * k->C + node * k->C + k->BOFFQ) <= 0)
        return 0;
    if (!make_reservations(k, node, head, inq))
        return 0;
    release_reservations(k, node, head);
    return 1;
}

/* One detection sweep from detector `start`.
 *   DET_NONE: count each fired episode once (H_NEWDET new detections);
 *   DET_DR:   return the first fired detector whose deflection would
 *             succeed (Python deflects and resumes at the next one);
 *   DET_PR:   fired[node] = 1 for every node with a fired detector.
 * Returns -1 when the sweep is complete. */
int32_t k_detect(void *h, int32_t now, int32_t mode, int32_t start)
{
    KState *k = (KState *)h;
    const int32_t ND = k->hdr[H_ND];
    if (mode == DET_NONE) {
        int32_t newdet = 0;
        for (int32_t d = 0; d < ND; d++) {
            if (det_step(k, d, now) && !k->d_counted[d]) {
                k->d_counted[d] = 1;
                newdet++;
                on_deadlock(k, now, W_UNRESOLVED);
            }
        }
        k->hdr[H_NEWDET] = newdet;
    } else if (mode == DET_DR) {
        for (int32_t d = start; d < ND; d++)
            if (det_step(k, d, now) && dr_can_deflect(k, d))
                return d;
    } else {
        memset(k->fired, 0, (size_t)k->N * sizeof(int32_t));
        for (int32_t d = 0; d < ND; d++)
            if (det_step(k, d, now))
                k->fired[k->d_node[d]] = 1;
    }
    return -1;
}

/* --------------------------------------------------------------------
 * Introspection for progressive recovery.
 * ------------------------------------------------------------------ */

/* First-minimal blocked_since frontier at `router` over `threshold`,
 * mirroring ProgressiveController._blocked_at_router. */
int32_t k_longest_blocked(void *h, int32_t router, int32_t now,
                          int32_t threshold)
{
    KState *k = (KState *)h;
    int32_t pn = k->hdr[H_PN];
    int32_t best = -1, best_since = 0;
    for (int32_t i = 0; i < pn; i++) {
        int32_t sid = k->pending[i];
        int32_t vid = k->s_owner[sid];
        if (vid < 0 || k->s_sink[sid] >= 0)
            continue;
        int32_t since = k->m_blocked[vid];
        if (since < 0)
            continue;
        if (k->s_router[sid] != router)
            continue;
        if (now - since > threshold && (best < 0 || since < best_since)) {
            best = sid;
            best_since = since;
        }
    }
    return best;
}

/* Remove the first occurrence of `sid` from pending (rescue detach). */
void k_detach(void *h, int32_t sid)
{
    KState *k = (KState *)h;
    int32_t pn = k->hdr[H_PN];
    for (int32_t i = 0; i < pn; i++) {
        if (k->pending[i] == sid) {
            memmove(k->pending + i, k->pending + i + 1,
                    (size_t)(pn - 1 - i) * sizeof(int32_t));
            k->hdr[H_PN] = pn - 1;
            return;
        }
    }
}
