// The svc probe of the traced run: a solver workload's own solve sent
// through an in-process solver service behind its Unix-socket server, by
// one client that submits the next job only after the previous result
// arrived. Every job is checked against an in-process solve.
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "solvers/lanczos.hpp"
#include "solvers/lobpcg.hpp"
#include "sparse/csb.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace svc = sts::svc;
namespace solver = sts::solver;
using svc::wire::Json;

constexpr double kMatchTol = 1e-8;

/// The job that runs `variant` of `spec`'s solve, at its block size.
svc::RunSpec job_spec(const Spec& spec, const Variant& variant, bool smoke) {
  svc::RunSpec s;
  s.suite_name = spec.matrix;
  s.scale = spec.size(smoke);
  s.solver = spec.kind == Kind::kLanczos ? svc::SolverKind::kLanczos
                                         : svc::SolverKind::kLobpcg;
  s.version = variant.version;
  s.iterations = spec.its(smoke);
  s.nev = spec.nev == 0 ? s.nev : spec.nev;
  s.tolerance = 1e-300; // LOBPCG: fixed iteration count
  s.block = variant.block;
  s.threads = variant.threads;
  return s;
}

/// The numbers a job's summary carries, computed in-process from the same
/// spec through the same public entry points the service uses.
std::vector<double> reference_values(const svc::RunSpec& spec) {
  const sts::sparse::Csr csr = sts::sparse::Csr::from_coo(spec.load());
  const sts::sparse::Csb csb = sts::sparse::Csb::from_csr(csr, spec.block);
  if (spec.solver == svc::SolverKind::kLanczos) {
    const auto r = solver::lanczos(csr, csb, spec.iterations, spec.version,
                                   spec.solver_options(spec.block));
    return {r.ritz_values.front(), r.ritz_values.back()};
  }
  return solver::lobpcg(csr, csb, spec.iterations, spec.version,
                        spec.lobpcg_options(spec.block))
      .eigenvalues;
}

/// The same numbers read back from a finished job's wire snapshot.
std::vector<double> job_values(const svc::RunSpec& spec, const Json& job) {
  const char* key =
      spec.solver == svc::SolverKind::kLanczos ? "ritz_extremes" : "eigenvalues";
  const Json& values = job.get("summary").get(key);
  std::vector<double> out;
  if (values.is_array()) {
    for (const Json& v : values.items()) out.push_back(v.as_number());
  }
  return out;
}

/// Empty when `got` matches `ref` to kMatchTol relative, element by element.
std::string compare(const std::vector<double>& got,
                    const std::vector<double>& ref, const char* what) {
  if (got.size() != ref.size() || got.empty()) {
    return std::string(what) + " has the wrong shape";
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - ref[i]) <= kMatchTol * std::abs(ref[i]))) {
      return std::string(what) + " " + std::to_string(got[i]) +
             " != " + std::to_string(ref[i]);
    }
  }
  return "";
}

/// Empty when `job` is a DONE cache hit matching the in-process reference.
std::string check_job(const svc::RunSpec& spec, const Json& job,
                      const std::vector<double>& ref) {
  if (job.string_or("state", "") != "DONE") {
    return "job " + job.string_or("state", "?") + ": " +
           job.string_or("error", "");
  }
  if (!job.bool_or("cache_hit", false)) return "plan cache miss after warm-up";
  const std::int64_t iters = job.get("summary").int_or("iterations", -1);
  if (iters != spec.iterations) {
    return "ran " + std::to_string(iters) + " iterations";
  }
  return compare(job_values(spec, job), ref, "result");
}

/// A one-slot service of kWorkers workers plus the server that fronts it;
/// the server stops first.
struct Daemon {
  svc::Service service;
  svc::Server server;

  explicit Daemon(const std::string& socket)
      : service(config()), server(service, socket) {
    server.start();
  }

  static svc::Service::Config config() {
    svc::Service::Config c;
    c.slots = 1;
    c.threads = kWorkers;
    return c;
  }
};

/// Submits `spec` and waits for its result. Throws when rejected or not DONE.
Json submit_and_wait(svc::Client& client, const svc::RunSpec& spec) {
  const svc::SubmitOutcome sub = client.submit(spec);
  if (!sub.accepted) throw std::runtime_error("rejected: " + sub.error);
  Json job = client.result(sub.id);
  if (job.string_or("state", "") != "DONE") {
    throw std::runtime_error("warm-up job " + job.string_or("state", "?") +
                             ": " + job.string_or("error", ""));
  }
  return job;
}

} // namespace

void probe_svc(Outcome& out, Tracer& tracer, const RunConfig& cfg,
               const Spec& spec, const Variant& variant) {
  const svc::RunSpec job = job_spec(spec, variant, cfg.smoke);
  const std::vector<double> ref = reference_values(job);
  std::filesystem::create_directories(cfg.work_dir);
  Daemon daemon(cfg.work_dir + "/svc-" + std::to_string(::getpid()));
  svc::Client client(daemon.server.socket_path());
  (void)submit_and_wait(client, job); // cold: builds the plan

  std::vector<double> ping_us;
  for (int i = 0; i < 200; ++i) {
    ping_us.push_back(tracer.time("svc.ping", -1, [&] {
      if (!client.ping()) throw std::runtime_error("ping failed");
    }) * 1e6);
  }

  std::vector<double> submit_ms;
  std::vector<double> wait_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> overhead_ms;
  double hits = 0.0;
  for (int i = 0; i < (cfg.smoke ? 3 : 10); ++i) {
    // Timed by the client: submit, then the wait for the result.
    const std::int64_t t0 = now_ns();
    const svc::SubmitOutcome sub = client.submit(job);
    const std::int64_t t1 = now_ns();
    const Json result = sub.accepted ? client.result(sub.id) : Json();
    const std::int64_t t2 = now_ns();
    const std::string err =
        sub.accepted ? check_job(job, result, ref) : "rejected: " + sub.error;
    out.record(err.empty() ? err : "svc probe: " + err);
    if (!err.empty()) continue;
    const int span = tracer.add("svc.job", t0, t2, -1, -1);
    tracer.add("svc.submit", t0, t1, span, -1);
    tracer.add("svc.result_wait", t1, t2, span, -1);
    const double run = result.number_or("run_seconds", 0.0) * 1e3;
    submit_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    wait_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    queue_ms.push_back(result.number_or("queue_seconds", 0.0) * 1e3);
    run_ms.push_back(run);
    overhead_ms.push_back(static_cast<double>(t2 - t0) * 1e-6 - run);
    if (result.bool_or("cache_hit", false)) hits += 1.0;
  }

  MetricSet& layer = out.layer;
  layer.add_median("svc.ping_us", ping_us, "us");
  layer.add_median("svc.submit_ms", submit_ms, "ms");
  layer.add_median("svc.result_wait_ms", wait_ms, "ms");
  layer.add_median("svc.queue_ms", queue_ms, "ms");
  layer.add_median("svc.run_ms", run_ms, "ms");
  layer.add_median("svc.overhead_ms", overhead_ms, "ms");
  layer.add("svc.cache_hit_ratio",
            hits / static_cast<double>(run_ms.size()), "ratio",
            run_ms.size());
  layer.add("svc.rejected",
            static_cast<double>(daemon.service.stats().rejected), "count");
}

} // namespace perfbench
