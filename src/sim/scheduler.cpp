#include "sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/contracts.hpp"

namespace tcppred::sim {

namespace {
constexpr std::size_t k_min_buckets = 64;    // power of two
constexpr std::size_t k_pool_chunk = 256;    // nodes per pool growth
/// Bucket width as a multiple of the mean inter-dequeue gap. Brown's
/// calendar-queue analysis wants a small multiple so the scan visits ~1
/// live event per bucket without long intra-bucket insertion walks.
constexpr double k_width_gap_factor = 4.0;
}  // namespace

bool scheduler::precedes(const event_node& a, const event_node& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    if (a.cause != b.cause) return a.cause < b.cause;
    return a.id < b.id;
}

scheduler::scheduler() : buckets_(k_min_buckets, nullptr), bucket_mask_(k_min_buckets - 1) {}

scheduler::~scheduler() = default;

double scheduler::virtual_bucket(time_point t) const noexcept {
    return std::floor(t * inv_width_);
}

scheduler::event_node* scheduler::alloc_node() {
    if (free_list_ == nullptr) {
        chunks_.push_back(std::make_unique<event_node[]>(k_pool_chunk));
        event_node* chunk = chunks_.back().get();
        for (std::size_t i = k_pool_chunk; i > 0; --i) {
            chunk[i - 1].next = free_list_;
            free_list_ = &chunk[i - 1];
        }
    }
    event_node* n = free_list_;
    free_list_ = n->next;
    n->next = nullptr;
    return n;
}

void scheduler::release_node(event_node* n) noexcept {
    n->id = 0;
    n->cb.reset();
    n->next = free_list_;
    free_list_ = n;
}

void scheduler::insert_node(event_node* n) {
    const double vb = virtual_bucket(n->when);
    // Keep the scan-position invariant: v_cur_ never exceeds the virtual
    // bucket of any pending event (otherwise the year-scan could return a
    // later event first).
    if (vb < v_cur_) {
        v_cur_ = vb;
        cur_ = static_cast<std::size_t>(static_cast<std::uint64_t>(vb)) & bucket_mask_;
    }
    const std::size_t idx =
        static_cast<std::size_t>(static_cast<std::uint64_t>(vb)) & bucket_mask_;
    // Sorted insertion by (when, cause, id): by cause, then FIFO, among
    // simultaneous events. Dead nodes (id == 0) order as "smaller" at equal
    // (when, cause), which leaves the relative order of live nodes untouched.
    event_node** p = &buckets_[idx];
    while (*p != nullptr && precedes(**p, *n)) p = &(*p)->next;
    n->next = *p;
    *p = n;
}

event_handle scheduler::schedule_at(time_point when, time_point cause, callback cb) {
    if (when < now_) {
        // Guard against accidental scheduling into the past; tolerate tiny
        // floating-point backsliding by clamping.
        if (now_ - when > 1e-9) {
            throw std::invalid_argument("scheduler: event scheduled in the past");
        }
        when = now_;
    }
    event_node* n = alloc_node();
    n->when = when;
    n->cause = std::clamp(cause, now_, when);
    n->id = next_id_++;
    n->cb = std::move(cb);
    insert_node(n);
    ++live_;
    if (live_ > buckets_.size() * 2) rebucket(buckets_.size() * 2);
    return event_handle{n->id, n};
}

void scheduler::cancel(event_handle h) {
    if (!h.valid() || h.node == nullptr) return;
    auto* n = static_cast<event_node*>(h.node);
    if (n->id != h.id) return;  // already fired, cancelled, or slot reused
    n->id = 0;
    n->cb.reset();
    TCPPRED_ASSERT(live_ > 0);
    --live_;
    ++dead_;
}

void scheduler::purge_all_dead() noexcept {
    if (dead_ == 0) return;
    for (event_node*& head : buckets_) {
        while (head != nullptr) {
            event_node* n = head;
            head = n->next;
            release_node(n);
        }
    }
    dead_ = 0;
}

const scheduler::event_node* scheduler::peek_min() {
    if (live_ == 0) {
        // Match the previous implementation's observable behaviour: once
        // no live events remain, cancelled leftovers are discarded too.
        purge_all_dead();
        return nullptr;
    }
    std::size_t scanned = 0;
    for (;;) {
        // Reclaim dead nodes at the head of the bucket under the cursor.
        event_node** head = &buckets_[cur_];
        while (*head != nullptr && (*head)->id == 0) {
            event_node* d = *head;
            *head = d->next;
            --dead_;
            release_node(d);
        }
        event_node* h = *head;
        if (h != nullptr && virtual_bucket(h->when) <= v_cur_) return h;
        v_cur_ += 1.0;
        cur_ = (cur_ + 1) & bucket_mask_;
        if (++scanned > buckets_.size()) {
            // A full sweep found nothing in the current "year": the queue is
            // sparse relative to its horizon. Jump straight to the bucket
            // holding the global minimum instead of sweeping year by year.
            const event_node* best = nullptr;
            for (event_node* b : buckets_) {
                event_node* n = b;
                while (n != nullptr && n->id == 0) n = n->next;
                if (n == nullptr) continue;
                if (best == nullptr || precedes(*n, *best)) best = n;
            }
            TCPPRED_ASSERT(best != nullptr);  // live_ > 0
            v_cur_ = virtual_bucket(best->when);
            cur_ = static_cast<std::size_t>(static_cast<std::uint64_t>(v_cur_)) &
                   bucket_mask_;
            scanned = 0;
        }
    }
}

scheduler::event_node* scheduler::pop_min() {
    const event_node* c = peek_min();
    if (c == nullptr) return nullptr;
    // peek_min leaves the cursor on the bucket whose head is the global
    // minimum live event.
    event_node* h = buckets_[cur_];
    TCPPRED_ASSERT(h == c);
    buckets_[cur_] = h->next;
    h->next = nullptr;
    --live_;
    const double gap = h->when - last_dequeued_;
    last_dequeued_ = h->when;
    if (gap > 0.0) {
        gap_ema_ = gap_ema_ == 0.0 ? gap : 0.9 * gap_ema_ + 0.1 * gap;
    }
    if (buckets_.size() > k_min_buckets && live_ < buckets_.size() / 8) {
        rebucket(buckets_.size() / 2);
    }
    return h;
}

void scheduler::rebucket(std::size_t new_bucket_count) {
    // Gather live nodes (dropping dead ones) and re-distribute them over the
    // new bucket array with a width re-derived from the observed event-gap
    // EMA. Nodes themselves never move: only the bucket chains are relinked.
    std::vector<event_node*> nodes;
    nodes.reserve(live_);
    for (event_node*& head : buckets_) {
        while (head != nullptr) {
            event_node* n = head;
            head = n->next;
            if (n->id == 0) {
                release_node(n);
            } else {
                n->next = nullptr;
                nodes.push_back(n);
            }
        }
    }
    dead_ = 0;
    buckets_.assign(new_bucket_count, nullptr);
    bucket_mask_ = new_bucket_count - 1;
    if (gap_ema_ > 0.0) {
        width_ = std::clamp(gap_ema_ * k_width_gap_factor, 1e-12, 1e9);
        inv_width_ = 1.0 / width_;
    }
    v_cur_ = virtual_bucket(now_);
    cur_ = static_cast<std::size_t>(static_cast<std::uint64_t>(v_cur_)) & bucket_mask_;
    for (event_node* n : nodes) insert_node(n);
}

bool scheduler::step() {
    event_node* n = pop_min();
    if (n == nullptr) return false;
    // Dispatch must never move simulated time backwards: schedule_at
    // clamps, so a violation here means the queue ordering itself broke.
    TCPPRED_ASSERT(n->when >= now_);
    now_ = n->when;
    cause_ = n->cause;
    ++fired_;
    // Move the callback out and recycle the node before invoking: the
    // callback may schedule new events (which may reuse this very node).
    small_callback cb = std::move(n->cb);
    release_node(n);
    cb();
    return true;
}

void scheduler::run_until(time_point t_end) {
    for (;;) {
        const event_node* head = peek_min();
        if (head == nullptr || head->when > t_end) break;
        step();
    }
    if (now_ < t_end) now_ = t_end;
    cause_ = std::numeric_limits<time_point>::infinity();
}

void scheduler::run_all() {
    while (step()) {
    }
    cause_ = std::numeric_limits<time_point>::infinity();
}

}  // namespace tcppred::sim
