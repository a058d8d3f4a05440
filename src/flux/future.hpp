// flux futures: continuation-capable shared state, future/shared_future,
// and promise, modeled on the HPX subset the paper's Listing 2 uses.
//
// Unlike std::future, a flux future can (1) carry continuations that fire
// when it becomes ready -- the mechanism dataflow() builds dependency
// chains out of -- and (2) be awaited cooperatively: get() called from a
// worker thread executes other pending tasks while it waits instead of
// blocking the OS thread (HPX suspends lightweight threads; help-first
// waiting is the equivalent for kernel-thread workers).
//
// The shared state is lock-free (DESIGN.md §10): readiness and the list of
// registered continuations are one atomic word, and continuations are
// intrusive links owned by whoever registers them, so completing a state
// or hooking a dependency onto it neither allocates nor locks.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <semaphore>
#include <thread>
#include <type_traits>
#include <utility>

#include "flux/scheduler.hpp"
#include "support/error.hpp"

namespace sts::flux {

namespace detail {

/// Intrusive completion link. The registrant owns the link's storage and
/// keeps it alive until it fires; it fires exactly once, either on the
/// thread that completes the state or inline in add_continuation() when the
/// state is already ready. `fire` must not throw.
struct Continuation {
  void (*fire)(Continuation& self) noexcept = nullptr;
  void* context = nullptr;
  Continuation* next = nullptr; // owned by the state while registered
};

/// Value of the state word once the state is ready; never a real link.
inline constinit Continuation ready_tag{};

/// Type-independent half of the shared state: the atomic state word, the
/// stored error, registration, completion and waiting.
///
/// The state word is null or the head of a Treiber stack of pending links
/// while the state is pending, and &ready_tag once it is ready. Pushes CAS
/// with release (publishing the link's fields); completion exchanges in
/// &ready_tag with acq_rel (release publishes the value and error, acquire
/// makes every pushed link visible). Readers acquire-load the word, so
/// seeing it ready makes the value visible without any lock.
class StateCore {
public:
  StateCore() = default;
  StateCore(const StateCore&) = delete;
  StateCore& operator=(const StateCore&) = delete;

  [[nodiscard]] bool ready() const noexcept {
    return head_.load(std::memory_order_acquire) == &ready_tag;
  }

  /// Registers `link` to fire when the state becomes ready; fires it inline
  /// immediately if already ready. Links fire in registration order.
  void add_continuation(Continuation& link) noexcept {
    Continuation* head = head_.load(std::memory_order_acquire);
    do {
      if (head == &ready_tag) {
        link.fire(link);
        return;
      }
      link.next = head;
    } while (!head_.compare_exchange_weak(head, &link,
                                          std::memory_order_release,
                                          std::memory_order_acquire));
  }

  /// Blocks until ready; `helper` (may be null) is invoked repeatedly to
  /// make progress while waiting (see future::get). With a helper, the wait
  /// is cancellation-aware: if the scheduler latches a task failure, the
  /// failure is rethrown here instead of blocking on a future whose
  /// producer was cancelled and will never complete.
  void wait(Scheduler* helper) {
    if (ready()) return;
    if (helper != nullptr && helper->current_worker() >= 0) {
      // Cooperative wait on a worker: stay hot, another worker is about to
      // publish the value.
      while (!ready()) {
        helper->rethrow_if_cancelled();
        if (!helper->try_run_one()) std::this_thread::yield();
      }
      return;
    }
    // A thread outside the pool parks on a link pushed onto the state word,
    // so completion wakes it through the ordinary firing loop and a state
    // nobody blocks on pays nothing for waiters.
    struct ParkerRef {
      Parker* p = nullptr;
      ~ParkerRef() {
        if (p != nullptr) p->drop();
      }
    } parker;
    while (!ready()) {
      if (helper != nullptr) {
        helper->rethrow_if_cancelled();
        if (helper->try_run_one()) continue;
      }
      if (parker.p == nullptr) parker.p = Parker::attach(*this);
      if (helper == nullptr) {
        parker.p->sem.acquire();
      } else {
        (void)parker.p->sem.try_acquire_for(std::chrono::milliseconds(1));
      }
    }
  }

  /// Stored exception if the state completed exceptionally; null while
  /// pending or on success. Used by dataflow() to forward dependency
  /// failures without invoking the dependent body.
  [[nodiscard]] std::exception_ptr error() const {
    return ready() ? error_ : nullptr;
  }

protected:
  ~StateCore() = default;

  /// Publishes the state (value already stored, or `e`) and fires the
  /// registered links in registration order.
  void complete(std::exception_ptr e) {
    STS_EXPECTS(!ready()); // single completion
    error_ = std::move(e);
    Continuation* list = head_.exchange(&ready_tag, std::memory_order_acq_rel);
    // The stack holds links newest first; reverse it so they fire in
    // registration order. Each `next` is read before its link fires: a fired
    // link's owner may be destroyed by then.
    Continuation* ordered = nullptr;
    while (list != nullptr) {
      Continuation* next = list->next;
      list->next = ordered;
      ordered = list;
      list = next;
    }
    while (ordered != nullptr) {
      Continuation* next = ordered->next;
      ordered->fire(*ordered);
      ordered = next;
    }
  }

private:
  /// A blocked thread's wake-up link. Heap-allocated and shared between the
  /// waiter and the state (two references), so a waiter that leaves on
  /// cancellation never strands a dangling link on the state.
  struct Parker {
    static Parker* attach(StateCore& state) {
      auto* parker = new Parker;
      state.add_continuation(parker->link);
      return parker;
    }
    static void on_ready(Continuation& link) noexcept {
      auto* parker = static_cast<Parker*>(link.context);
      parker->sem.release();
      parker->drop();
    }
    void drop() noexcept {
      if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
    }
    Continuation link{&on_ready, this};
    std::binary_semaphore sem{0};
    std::atomic<int> refs{2};
  };

  std::atomic<Continuation*> head_{nullptr};
  std::exception_ptr error_;
};

/// Shared state common to future<T> and shared_future<T>.
template <typename T>
class FutureState : public StateCore {
public:
  using Storage = std::conditional_t<std::is_void_v<T>, char, std::optional<T>>;

  void set_value_impl() {
    static_assert(std::is_void_v<T>);
    complete(nullptr);
  }

  template <typename U>
  void set_value_impl(U&& value) {
    static_assert(!std::is_void_v<T>);
    STS_EXPECTS(!ready()); // single completion (checked before storing)
    storage_.emplace(std::forward<U>(value));
    complete(nullptr);
  }

  void set_exception(std::exception_ptr e) { complete(std::move(e)); }

  /// Precondition: ready. Rethrows a stored exception.
  decltype(auto) value() {
    STS_EXPECTS(ready());
    if (auto e = error()) std::rethrow_exception(e);
    if constexpr (!std::is_void_v<T>) {
      return static_cast<T&>(*storage_);
    }
  }

protected:
  /// Stores the value without publishing it (complete() publishes).
  template <typename U>
  void emplace_value(U&& value) {
    storage_.emplace(std::forward<U>(value));
  }

private:
  Storage storage_{};
};

} // namespace detail

template <typename T>
class future;
template <typename T>
class shared_future;

/// Write side of a future (used by async/dataflow internals and by user
/// code bridging external events into the dataflow graph).
template <typename T>
class promise {
public:
  promise() : state_(std::make_shared<detail::FutureState<T>>()) {}

  [[nodiscard]] future<T> get_future() const { return future<T>(state_); }
  [[nodiscard]] shared_future<T> get_shared_future() const {
    return shared_future<T>(state_);
  }

  template <typename U = T>
  void set_value(U&& v) {
    state_->set_value_impl(std::forward<U>(v));
  }
  void set_value()
    requires std::is_void_v<T>
  {
    state_->set_value_impl();
  }
  void set_exception(std::exception_ptr e) { state_->set_exception(e); }

private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Move-only handle to an eventual value.
template <typename T>
class future {
public:
  future() = default;
  explicit future(std::shared_ptr<detail::FutureState<T>> s)
      : state_(std::move(s)) {}

  future(future&&) noexcept = default;
  future& operator=(future&&) noexcept = default;
  future(const future&) = delete;
  future& operator=(const future&) = delete;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool is_ready() const {
    STS_EXPECTS(valid());
    return state_->ready();
  }

  /// Waits (cooperatively on worker threads when `helper` given) and
  /// returns the value / rethrows.
  T get(Scheduler* helper = nullptr) {
    STS_EXPECTS(valid());
    state_->wait(helper);
    if constexpr (std::is_void_v<T>) {
      state_->value();
    } else {
      return std::move(state_->value());
    }
  }

  [[nodiscard]] shared_future<T> share() {
    STS_EXPECTS(valid());
    return shared_future<T>(std::move(state_));
  }

  /// Internal: dependency hookup for dataflow().
  [[nodiscard]] const std::shared_ptr<detail::FutureState<T>>& state() const {
    return state_;
  }

private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Copyable handle; the type the solvers keep per vector block
/// (`std::vector<shared_future<void>> Y_ftr` in Listing 2).
template <typename T>
class shared_future {
public:
  shared_future() = default;
  explicit shared_future(std::shared_ptr<detail::FutureState<T>> s)
      : state_(std::move(s)) {}
  /*implicit*/ shared_future(future<T>&& f)
      : state_(std::move(f.share().state_)) {}

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool is_ready() const {
    STS_EXPECTS(valid());
    return state_->ready();
  }

  /// For non-void T returns a const reference to the shared value.
  decltype(auto) get(Scheduler* helper = nullptr) const {
    STS_EXPECTS(valid());
    state_->wait(helper);
    if constexpr (std::is_void_v<T>) {
      state_->value();
    } else {
      return static_cast<const T&>(state_->value());
    }
  }

  [[nodiscard]] const std::shared_ptr<detail::FutureState<T>>& state() const {
    return state_;
  }

private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// An already-satisfied future (HPX's make_ready_future).
inline shared_future<void> make_ready_future() {
  promise<void> p;
  p.set_value();
  return p.get_shared_future();
}

template <typename T>
shared_future<std::decay_t<T>> make_ready_future(T&& value) {
  promise<std::decay_t<T>> p;
  p.set_value(std::forward<T>(value));
  return p.get_shared_future();
}

} // namespace sts::flux
