// async / dataflow / unwrapping / when_all: the HPX dataflow model.
//
// dataflow(sched, f, args...) schedules f(args...) to run once every
// future-like argument is ready, returning a future for the result. Plain
// (non-future) arguments pass through untouched; futures are passed *as
// futures* -- wrap `f` with unwrapping() to receive the contained values
// instead (void futures are dropped), which lets task bodies be written as
// ordinary functions, exactly as the paper describes for Listing 2.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <vector>

#include "flux/future.hpp"

namespace sts::flux {

namespace detail {

template <typename T>
struct is_future_like : std::false_type {};
template <typename T>
struct is_future_like<future<T>> : std::true_type {};
template <typename T>
struct is_future_like<shared_future<T>> : std::true_type {};
template <typename T>
struct is_future_like<std::vector<shared_future<T>>> : std::true_type {};

template <typename T>
inline constexpr bool is_future_like_v = is_future_like<std::decay_t<T>>::value;

/// Calls `visit(state)` for the shared state of every future inside `arg`
/// (no-op for plain values).
template <typename A, typename Visit>
void for_each_state(const A& arg, Visit&& visit) {
  if constexpr (!is_future_like_v<A>) {
    (void)arg;
    (void)visit;
  } else if constexpr (requires { arg.begin(); }) {
    for (const auto& f : arg) visit(*f.state());
  } else {
    visit(*arg.state());
  }
}

/// Counts the dependencies an argument contributes.
template <typename A>
std::size_t dependency_count(const A& arg) {
  std::size_t n = 0;
  for_each_state(arg, [&](const StateCore&) { ++n; });
  return n;
}

/// First stored exception among the (ready) futures inside `arg`, if any.
template <typename A>
std::exception_ptr dependency_error(const A& arg) {
  std::exception_ptr err;
  for_each_state(arg, [&](const StateCore& s) {
    if (!err) err = s.error();
  });
  return err;
}

/// One dataflow task in a single allocation (DESIGN.md §10): the node is
/// the task's FutureState<R> and also owns the callable, the arguments,
/// the countdown of unfinished dependencies and the intrusive links it
/// registers on those dependencies (inline for up to kInlineLinks, one
/// array above that). While any link is pending the node keeps itself
/// alive through `self_`; the link that brings the countdown to zero hands
/// that reference to the scheduler task that runs the body. The callable
/// and arguments are destroyed before the result is published, so a
/// finished node pins neither its inputs nor their producers.
///
/// With kWaitsOnArgs false (async) future arguments are plain values: the
/// node has no dependencies and is submitted at creation.
template <typename R, bool kWaitsOnArgs, typename Fn, typename... Args>
class DataflowNode final : public FutureState<R> {
public:
  static constexpr std::size_t kInlineLinks = 4;

  template <typename F, typename... A>
  DataflowNode(Scheduler& sched, int hint, F&& f, A&&... args)
      : sched_(&sched), hint_(hint) {
    payload_.emplace(std::forward<F>(f), std::forward<A>(args)...);
  }

  /// Creates the node, registers it on its dependencies and returns its
  /// future. The node is submitted once the last dependency is ready (at
  /// once when there is none).
  template <typename F, typename... A>
  static future<R> launch(Scheduler& sched, int hint, F&& f, A&&... args) {
    auto owner = std::make_shared<DataflowNode>(
        sched, hint, std::forward<F>(f), std::forward<A>(args)...);
    DataflowNode& node = *owner;
    std::size_t deps = 0;
    Continuation* links = node.inline_links_;
    if constexpr (kWaitsOnArgs) {
      std::apply(
          [&](const auto&... a) { ((deps += dependency_count(a)), ...); },
          node.payload_->args);
      if (deps > kInlineLinks) {
        node.link_array_ = std::make_unique<Continuation[]>(deps);
        links = node.link_array_.get();
      }
    }
    // +1 sentinel: keeps the task from firing while links are still being
    // registered below.
    node.remaining_.store(deps + 1, std::memory_order_relaxed);
    future<R> result(owner);
    node.self_ = std::move(owner); // nothing below throws
    if constexpr (kWaitsOnArgs) {
      std::apply(
          [&](const auto&... a) {
            (for_each_state(a,
                            [&](StateCore& s) {
                              Continuation& link = *links++;
                              link.fire = &DataflowNode::on_dependency_ready;
                              link.context = &node;
                              s.add_continuation(link);
                            }),
             ...);
          },
          node.payload_->args);
    }
    node.release_one(); // the sentinel
    return result;
  }

private:
  struct Payload {
    template <typename F, typename... A>
    explicit Payload(F&& f, A&&... a)
        : fn(std::forward<F>(f)), args(std::forward<A>(a)...) {}
    Fn fn;
    std::tuple<Args...> args;
  };

  static void on_dependency_ready(Continuation& link) noexcept {
    static_cast<DataflowNode*>(link.context)->release_one();
  }

  void release_one() noexcept {
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // submit_always: the node owns a future and must complete it even
      // under cancellation (a dropped body would strand it).
      sched_->submit_always([node = std::move(self_)] { node->run(); },
                            hint_);
    }
  }

  void run() {
    std::exception_ptr err;
    if constexpr (kWaitsOnArgs) {
      // A failed dependency poisons this node: forward its exception without
      // invoking the body, so errors flow along dataflow edges exactly like
      // values do.
      std::apply(
          [&](const auto&... a) {
            ((err = err ? err : dependency_error(a)), ...);
          },
          payload_->args);
    }
    if (!err) {
      try {
        // An unrelated task's failure cancels this body too; the latched
        // error flows into this node's future.
        sched_->rethrow_if_cancelled();
        if constexpr (std::is_void_v<R>) {
          std::apply(payload_->fn, payload_->args);
        } else {
          this->emplace_value(std::apply(payload_->fn, payload_->args));
        }
      } catch (...) {
        err = std::current_exception();
        // Latch with the scheduler *before* publishing, so by the time a
        // waiter observes the exception the runtime is already cancelling
        // (the ordering the watchdog tests rely on).
        sched_->report_task_error(err);
      }
    }
    payload_.reset();
    this->complete(std::move(err));
  }

  std::optional<Payload> payload_;
  Scheduler* sched_;
  int hint_;
  std::atomic<std::size_t> remaining_{0};
  std::shared_ptr<DataflowNode> self_;
  Continuation inline_links_[kInlineLinks];
  std::unique_ptr<Continuation[]> link_array_;
};

} // namespace detail

/// Launch policy tag mirroring hpx::launch::async (the only policy the
/// benchmarks need; a `sync` policy would run inline).
struct launch_async_t {};
inline constexpr launch_async_t launch_async{};

/// Runs f(args...) on the scheduler immediately (no dependencies).
template <typename F, typename... Args>
auto async(Scheduler& sched, F&& f, Args&&... args)
    -> future<std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>&...>> {
  using R = std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>&...>;
  return detail::DataflowNode<R, false, std::decay_t<F>,
                              std::decay_t<Args>...>::
      launch(sched, -1, std::forward<F>(f), std::forward<Args>(args)...);
}

/// Schedules f(args...) for when all future-like args are ready.
/// `domain_hint` forwards to the scheduler (NUMA-aware placement).
template <typename F, typename... Args>
auto dataflow_hint(Scheduler& sched, int domain_hint, F&& f, Args&&... args)
    -> future<std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>&...>> {
  using R = std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>&...>;
  return detail::DataflowNode<R, true, std::decay_t<F>, std::decay_t<Args>...>::
      launch(sched, domain_hint, std::forward<F>(f),
             std::forward<Args>(args)...);
}

template <typename F, typename... Args>
auto dataflow(Scheduler& sched, launch_async_t, F&& f, Args&&... args) {
  return dataflow_hint(sched, -1, std::forward<F>(f),
                       std::forward<Args>(args)...);
}

template <typename F, typename... Args>
auto dataflow(Scheduler& sched, F&& f, Args&&... args) {
  return dataflow_hint(sched, -1, std::forward<F>(f),
                       std::forward<Args>(args)...);
}

namespace detail {

template <typename A>
decltype(auto) unwrap_one(A& arg) {
  using D = std::decay_t<A>;
  if constexpr (!is_future_like_v<A>) {
    return std::forward_as_tuple(arg);
  } else if constexpr (requires { arg.begin(); }) {
    return std::tuple<>{}; // vectors of (void) futures are pure dependencies
  } else if constexpr (std::is_same_v<D, shared_future<void>> ||
                       std::is_same_v<D, future<void>>) {
    return std::tuple<>{}; // void futures carry no value
  } else {
    return std::make_tuple(arg.get());
  }
}

} // namespace detail

/// HPX-style unwrapping: adapts plain f(values...) into a callable taking
/// futures, dropping void futures and fetching values from non-void ones.
/// The returned callable must only run when its futures are ready (which
/// dataflow guarantees).
template <typename F>
auto unwrapping(F f) {
  return [f = std::move(f)](auto&... args) -> decltype(auto) {
    return std::apply(f, std::tuple_cat(detail::unwrap_one(args)...));
  };
}

/// Future that becomes ready when all elements are ready (HPX when_all,
/// collapsed to void because the solvers only chain on readiness).
template <typename T>
future<void> when_all(Scheduler& sched, std::vector<shared_future<T>> futs) {
  return dataflow_hint(sched, -1, [](const auto&) {}, std::move(futs));
}

} // namespace sts::flux
