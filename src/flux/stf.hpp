// Sequential task flow (STF): the StarPU/PaRSEC front end over dataflow().
//
// A driver registers the objects its tasks touch (each split into pieces),
// then inserts tasks in program order, declaring what each one reads and
// writes. Stf infers the dataflow edges from those declarations — the
// per-piece last-writer future and reader set a Listing-2 HPX driver keeps
// by hand — so a parallel run computes what the sequential program would:
//
//   - a read waits on the piece's last writer;
//   - a write waits on every reader since the last write, or on the last
//     writer when there is none (each such reader already waited on it);
//   - a task that reads and writes a piece declares only the write.
//
// Futures that are already complete (without error) and repeats of the
// same future are dropped, so a task carries only the edges that can
// still hold it back. Up to DepList::kInline dependencies travel inside the
// dataflow node; the node itself is the only per-task allocation then.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

#include "flux/dataflow.hpp"
#include "support/error.hpp"

namespace sts::flux {

/// One declared access: piece `piece` of registered object `data`, or every
/// piece when `piece` is -1.
struct Access {
  int data = 0;
  std::int64_t piece = -1;
  bool write = false;
};

[[nodiscard]] inline Access read(int data, std::int64_t piece = -1) {
  return {data, piece, false};
}
/// A write also covers read-write.
[[nodiscard]] inline Access write(int data, std::int64_t piece = -1) {
  return {data, piece, true};
}

/// The dependencies of one task: kInline futures in place, more in one heap
/// array. Iterable like std::vector<shared_future<void>>, so dataflow()
/// waits on every element and unwrapping() drops it.
class DepList {
public:
  /// DataflowNode::kInlineLinks: up to this many, the node's links are
  /// inline too.
  static constexpr std::size_t kInline = 4;

  [[nodiscard]] const shared_future<void>* begin() const {
    return size_ <= kInline ? inline_.data() : spill_.data();
  }
  [[nodiscard]] const shared_future<void>* end() const {
    return begin() + size_;
  }

  /// Adds `f` unless it is empty, complete without error, or already held.
  void add(const shared_future<void>& f) {
    if (!f.valid() || (f.is_ready() && f.state()->error() == nullptr)) return;
    for (const shared_future<void>& d : *this) {
      if (d.state() == f.state()) return;
    }
    if (size_ < kInline) {
      inline_[size_++] = f;
      return;
    }
    if (size_ == kInline) {
      spill_.reserve(2 * kInline);
      for (shared_future<void>& d : inline_) spill_.push_back(std::move(d));
    }
    spill_.push_back(f);
    ++size_;
  }

private:
  std::array<shared_future<void>, kInline> inline_;
  std::vector<shared_future<void>> spill_;
  std::size_t size_ = 0;
};

namespace detail {
template <>
struct is_future_like<DepList> : std::true_type {};
} // namespace detail

/// Infers task dependencies from declared accesses (see the file comment).
/// Not thread-safe: one thread inserts and syncs, like the sequential
/// program it stands for.
class Stf {
public:
  using Fut = shared_future<void>;

  explicit Stf(Scheduler& sched) : sched_(&sched) {}

  [[nodiscard]] Scheduler& scheduler() const { return *sched_; }

  /// Registers an object of `pieces` pieces; returns its handle.
  int data(std::int64_t pieces) {
    STS_EXPECTS(pieces > 0);
    objects_.emplace_back(static_cast<std::size_t>(pieces));
    return static_cast<int>(objects_.size()) - 1;
  }

  /// Launches `fn()` on the scheduler (placement hint `hint`) once every
  /// earlier conflicting access has finished; returns its future.
  template <typename Fn>
  Fut insert(int hint, Fn fn, std::initializer_list<Access> accesses) {
    DepList deps;
    for (const Access& a : accesses) {
      for_pieces(a, [&](Piece& pc) {
        if (!a.write || pc.readers.empty()) {
          deps.add(pc.writer);
        } else {
          for (const Fut& r : pc.readers) deps.add(r);
        }
      });
    }
    Fut f = dataflow_hint(*sched_, hint, unwrapping(std::move(fn)),
                          std::move(deps))
                .share();
    // Reads first: a task that also writes the piece ends up its one writer.
    for (const Access& a : accesses) {
      if (!a.write) for_pieces(a, [&](Piece& pc) { add_reader(pc, f); });
    }
    for (const Access& a : accesses) {
      if (a.write) {
        for_pieces(a, [&](Piece& pc) {
          pc.writer = f;
          pc.readers.clear();
        });
      }
    }
    return f;
  }

  /// Waits, helping the scheduler, until the calling thread may make
  /// `accesses` itself: reads wait on the last writer, writes also on the
  /// readers since. The caller is then the pieces' last accessor, so later
  /// tasks do not wait on what it waited for. Rethrows a task failure.
  void sync(std::initializer_list<Access> accesses) {
    for (const Access& a : accesses) {
      for_pieces(a, [&](Piece& pc) {
        if (pc.writer.valid()) pc.writer.get(sched_);
        if (a.write) {
          for (const Fut& r : pc.readers) r.get(sched_);
        }
      });
    }
    for (const Access& a : accesses) {
      for_pieces(a, [&](Piece& pc) {
        pc.writer = Fut{};
        if (a.write) pc.readers.clear();
      });
    }
  }

private:
  struct Piece {
    Fut writer;               // empty: no pending writer
    std::vector<Fut> readers; // since `writer`
  };

  template <typename Visit>
  void for_pieces(const Access& a, Visit&& visit) {
    STS_EXPECTS(a.data >= 0 &&
                static_cast<std::size_t>(a.data) < objects_.size());
    std::vector<Piece>& pieces = objects_[static_cast<std::size_t>(a.data)];
    if (a.piece < 0) {
      for (Piece& pc : pieces) visit(pc);
      return;
    }
    STS_EXPECTS(static_cast<std::size_t>(a.piece) < pieces.size());
    visit(pieces[static_cast<std::size_t>(a.piece)]);
  }

  /// Appends a reader; when the list is full, first drops the readers that
  /// have finished cleanly, so an object that is read but rarely written
  /// keeps a short list.
  static void add_reader(Piece& pc, const Fut& f) {
    std::vector<Fut>& rs = pc.readers;
    if (!rs.empty() && rs.back().state() == f.state()) return; // xty(R, R)
    if (rs.size() >= 8 && rs.size() == rs.capacity()) {
      std::erase_if(rs, [](const Fut& r) {
        return r.is_ready() && r.state()->error() == nullptr;
      });
    }
    rs.push_back(f);
  }

  Scheduler* sched_;
  std::vector<std::vector<Piece>> objects_;
};

} // namespace sts::flux
