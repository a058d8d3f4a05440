#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>

#include "ds/builder.hpp"
#include "ds/executor.hpp"
#include "ds/program.hpp"
#include "sparse/generators.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace sts::ds {
namespace {

using graph::KernelKind;
using graph::Task;
using la::DenseMatrix;
using la::index_t;

TEST(GraphBuilder, WiresRawWarWaw) {
  GraphBuilder b;
  const DataId d = b.register_data("d", 1, 64);
  const DataPiece piece{d, 0};
  // w0 writes, r1 reads (RAW edge w0->r1), w2 writes (WAR r1->w2, WAW
  // w0->w2 is subsumed since readers were cleared... the builder links
  // last_writer too).
  const auto w0 = b.add_task(Task{}, {}, {&piece, 1});
  const auto r1 = b.add_task(Task{}, {&piece, 1}, {});
  const auto w2 = b.add_task(Task{}, {}, {&piece, 1});
  const auto& g = b.graph();
  ASSERT_EQ(g.task_count(), 3u);
  EXPECT_EQ(g.successors(w0).size(), 2u); // -> r1 (RAW) and -> w2 (WAW)
  ASSERT_EQ(g.successors(r1).size(), 1u);
  EXPECT_EQ(g.successors(r1)[0], w2);
  EXPECT_TRUE(g.is_acyclic());
}

TEST(GraphBuilder, PieceGranularityAvoidsFalseEdges) {
  GraphBuilder b;
  const DataId d = b.register_data("d", 4, 256);
  for (std::int32_t p = 0; p < 4; ++p) {
    const DataPiece piece{d, p};
    b.add_task(Task{}, {}, {&piece, 1});
  }
  for (std::size_t t = 0; t < b.graph().task_count(); ++t) {
    EXPECT_TRUE(b.graph().successors(static_cast<graph::TaskId>(t)).empty());
  }
}

TEST(GraphBuilder, WholeStructureConflictsWithEveryPiece) {
  GraphBuilder b;
  const DataId d = b.register_data("d", 4, 256);
  const DataPiece whole{d, -1};
  const auto w = b.add_task(Task{}, {}, {&whole, 1});
  const DataPiece piece{d, 2};
  const auto r = b.add_task(Task{}, {&piece, 1}, {});
  (void)r;
  ASSERT_EQ(b.graph().successors(w).size(), 1u);
}

struct ProgramFixture {
  sparse::Coo coo;
  sparse::Csb csb;
  DenseMatrix dense;

  explicit ProgramFixture(index_t block = 32)
      : coo(sparse::gen_fem3d(5, 5, 5, 1, 31)),
        csb(sparse::Csb::from_coo(coo, block)),
        dense(coo.to_dense()) {}
};

class ProgramExecModes : public ::testing::TestWithParam<ExecMode> {};

TEST_P(ProgramExecModes, SpmmKernelMatchesDense) {
  ProgramFixture f;
  const index_t m = f.csb.rows();
  DenseMatrix x(m, 4);
  DenseMatrix y(m, 4);
  support::Xoshiro256 rng(5);
  x.fill_random(rng);
  Program prog(&f.csb, {});
  const DataId xid = prog.vec("x", &x);
  const DataId yid = prog.vec("y", &y);
  prog.spmm(xid, yid);
  const graph::Tdg g = prog.build();
  execute(g, {.mode = GetParam(), .trace = nullptr});
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      double acc = 0.0;
      for (index_t c = 0; c < m; ++c) acc += f.dense.at(i, c) * x.at(c, j);
      ASSERT_NEAR(y.at(i, j), acc, 1e-10);
    }
  }
}

TEST_P(ProgramExecModes, FullKernelPipelineIsCorrect) {
  ProgramFixture f(17);
  const index_t m = f.csb.rows();
  DenseMatrix x(m, 3);
  DenseMatrix y(m, 3);
  DenseMatrix z(3, 3);
  DenseMatrix p(3, 3);
  support::Xoshiro256 rng(6);
  x.fill_random(rng);
  z.fill_random(rng);
  double dot_result = 0.0;
  double norm_result = 0.0;
  (void)y;

  DenseMatrix y2(m, 3);
  DenseMatrix q(m, 3);
  Program prog2(&f.csb, {});
  const DataId x2 = prog2.vec("x", &x);
  const DataId y2id = prog2.vec("y", &y2);
  const DataId q2 = prog2.vec("q", &q);
  const DataId z2 = prog2.small("z", &z);
  const DataId p2 = prog2.small("p", &p);
  const DataId dot2 = prog2.scalar("dot", &dot_result);
  const DataId norm2 = prog2.scalar("norm", &norm_result);
  prog2.spmm(x2, y2id);             // y2 = A x
  prog2.xy(y2id, z2, q2, 1.0, 0.0); // q = y2 z
  prog2.xty(y2id, q2, p2);          // p = y2^T q
  prog2.dot(q2, q2, dot2);          // dot = <q, q>
  prog2.small_task(KernelKind::kNorm,
                   [&] { norm_result = std::sqrt(dot_result); }, {dot2},
                   {norm2});
  const graph::Tdg g = prog2.build();
  EXPECT_TRUE(g.is_acyclic());
  execute(g, {.mode = GetParam(), .trace = nullptr});

  // Reference.
  DenseMatrix y_ref(m, 3);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      double acc = 0.0;
      for (index_t c = 0; c < m; ++c) acc += f.dense.at(i, c) * x.at(c, j);
      y_ref.at(i, j) = acc;
    }
  }
  DenseMatrix q_ref(m, 3);
  la::gemm(1.0, y_ref.view(), z.view(), 0.0, q_ref.view());
  DenseMatrix p_ref(3, 3);
  la::gemm_tn(1.0, y_ref.view(), q_ref.view(), 0.0, p_ref.view());
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      ASSERT_NEAR(p.at(i, j), p_ref.at(i, j), 1e-8);
    }
  }
  EXPECT_NEAR(dot_result, la::dot(q_ref.view(), q_ref.view()), 1e-8);
  EXPECT_NEAR(norm_result, la::norm_fro(q_ref.view()), 1e-10);
}

TEST_P(ProgramExecModes, ReductionBasedSpmmMatchesDependencyBased) {
  ProgramFixture f(25);
  const index_t m = f.csb.rows();
  DenseMatrix x(m, 2);
  support::Xoshiro256 rng(7);
  x.fill_random(rng);

  DenseMatrix y_dep(m, 2);
  Program dep(&f.csb, {.skip_empty_blocks = true,
                       .dependency_based_spmm = true,
                       .spmm_buffers = 3});
  dep.spmm(dep.vec("x", &x), dep.vec("y", &y_dep));
  execute(dep.build(), {.mode = GetParam(), .trace = nullptr});

  DenseMatrix y_red(m, 2);
  Program red(&f.csb, {.skip_empty_blocks = true,
                       .dependency_based_spmm = false,
                       .spmm_buffers = 3});
  red.spmm(red.vec("x", &x), red.vec("y", &y_red));
  execute(red.build(), {.mode = GetParam(), .trace = nullptr});

  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < 2; ++j) {
      ASSERT_NEAR(y_dep.at(i, j), y_red.at(i, j), 1e-10);
    }
  }
}

TEST_P(ProgramExecModes, VectorKernels) {
  ProgramFixture f(40);
  const index_t m = f.csb.rows();
  DenseMatrix x(m, 2);
  DenseMatrix y(m, 2);
  DenseMatrix w(m, 1);
  DenseMatrix wide(m, 5);
  support::Xoshiro256 rng(8);
  x.fill_random(rng);
  y.fill_random(rng);
  w.fill_random(rng);
  DenseMatrix x0 = x.clone();
  DenseMatrix y0 = y.clone();
  double scale_cell = 4.0;

  Program prog(&f.csb, {});
  const DataId xid = prog.vec("x", &x);
  const DataId yid = prog.vec("y", &y);
  const DataId wid = prog.vec("w", &w);
  const DataId wideid = prog.vec("wide", &wide);
  const DataId sid = prog.scalar("s", &scale_cell);
  prog.axpy(2.0, xid, yid);                   // y += 2x
  prog.copy(yid, xid);                        // x = y
  prog.scale_by_scalar(xid, sid, true);       // x /= 4
  static const index_t kCol = 3;
  prog.copy_into_column(wid, wideid, &kCol);  // wide(:,3) = w
  prog.scale_into(wid, sid, false, wid);      // w *= 4  (in place via copy)
  execute(prog.build(), {.mode = GetParam(), .trace = nullptr});

  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < 2; ++j) {
      const double expected_y = y0.at(i, j) + 2.0 * x0.at(i, j);
      ASSERT_NEAR(y.at(i, j), expected_y, 1e-12);
      ASSERT_NEAR(x.at(i, j), expected_y / 4.0, 1e-12);
    }
    ASSERT_NEAR(wide.at(i, 3), w.at(i, 0) / 4.0, 1e-12);
  }
}

// With an `active` width, XTY/XY read only the leading columns of the
// basis: columns past it hold NaN here, and the results must still be
// finite and match la::gemm_tn / la::gemm on the prefix. The width is read
// at execution time, so one graph serves every width.
TEST_P(ProgramExecModes, ActiveWidthReadsOnlyLeadingColumns) {
  ProgramFixture f(16);
  const index_t m = f.csb.rows();
  const index_t cols = 7;
  DenseMatrix basis0(m, cols);
  DenseMatrix basis(m, cols);
  DenseMatrix z(m, 1);
  DenseMatrix z0(m, 1);
  DenseMatrix proj(cols, 1);
  support::Xoshiro256 rng(9);
  basis0.fill_random(rng);
  z0.fill_random(rng);

  index_t active = 0;
  Program prog(&f.csb, {});
  const DataId bid = prog.vec("basis", &basis);
  const DataId zid = prog.vec("z", &z);
  const DataId pid = prog.small("proj", &proj);
  prog.xty(bid, zid, pid, &active);           // proj = basis^T z
  prog.xy(bid, pid, zid, -1.0, 1.0, &active); // z -= basis proj
  const graph::Tdg g = prog.build();

  for (const index_t w : {index_t{3}, index_t{5}}) {
    la::copy(basis0.view(), basis.view());
    for (index_t r = 0; r < m; ++r) {
      for (index_t c = w; c < cols; ++c) basis.at(r, c) = std::nan("");
    }
    la::copy(z0.view(), z.view());
    proj.fill(std::nan(""));
    active = w;
    execute(g, {.mode = GetParam(), .trace = nullptr});

    const la::ConstMatrixView prefix = basis.leading_cols(0, m, w);
    DenseMatrix proj_ref(w, 1);
    la::gemm_tn(1.0, prefix, z0.view(), 0.0, proj_ref.view());
    DenseMatrix z_ref = z0.clone();
    la::gemm(-1.0, prefix, proj_ref.view(), 1.0, z_ref.view());
    for (index_t c = 0; c < cols; ++c) {
      ASSERT_TRUE(std::isfinite(proj.at(c, 0))) << "w=" << w << " c=" << c;
      const double want = c < w ? proj_ref.at(c, 0) : 0.0;
      ASSERT_NEAR(proj.at(c, 0), want, 1e-10) << "w=" << w << " c=" << c;
    }
    for (index_t r = 0; r < m; ++r) {
      ASSERT_TRUE(std::isfinite(z.at(r, 0))) << "w=" << w << " r=" << r;
      ASSERT_NEAR(z.at(r, 0), z_ref.at(r, 0), 1e-10) << "w=" << w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ProgramExecModes,
                         ::testing::Values(ExecMode::kSerial,
                                           ExecMode::kOmpTasks));

TEST(Program, SkipEmptyBlocksShrinksGraph) {
  ProgramFixture f(8); // small blocks: plenty of empty ones in a stencil
  DenseMatrix x(f.csb.rows(), 1);
  DenseMatrix y(f.csb.rows(), 1);

  Program skip(&f.csb, {.skip_empty_blocks = true,
                        .dependency_based_spmm = true,
                        .spmm_buffers = 2});
  skip.spmm(skip.vec("x", &x), skip.vec("y", &y));
  Program noskip(&f.csb, {.skip_empty_blocks = false,
                          .dependency_based_spmm = true,
                          .spmm_buffers = 2});
  noskip.spmm(noskip.vec("x", &x), noskip.vec("y", &y));
  EXPECT_LT(skip.build().task_count(), noskip.build().task_count());
}

TEST(Program, TaskCountMatchesNonemptyBlocks) {
  ProgramFixture f(16);
  DenseMatrix x(f.csb.rows(), 1);
  DenseMatrix y(f.csb.rows(), 1);
  Program prog(&f.csb, {});
  prog.spmm(prog.vec("x", &x), prog.vec("y", &y));
  const graph::Tdg g = prog.build();
  const index_t np = prog.partitions();
  // zero tasks (np) + one task per non-empty block.
  EXPECT_EQ(static_cast<index_t>(g.task_count()),
            np + f.csb.nonempty_blocks());
}

/// Reference for the stride of an SpMM task's x access: the distinct 64-byte
/// lines of the n-column input piece that block (bi, bj) gathers, counted
/// with a std::set, spread over the piece's lines.
std::uint32_t reference_input_stride(const sparse::Csb& a, index_t bi,
                                     index_t bj, index_t n,
                                     std::uint64_t piece_bytes) {
  const sparse::Csb::BlockView v = a.block_view(bi, bj);
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(n) * sizeof(double);
  std::set<std::uint64_t> lines;
  for (std::int64_t t = v.first; t < v.first + v.nnz; ++t) {
    lines.insert(static_cast<std::uint64_t>(v.col(t)) * row_bytes / 64);
  }
  const std::uint64_t piece_lines =
      std::max<std::uint64_t>(1, piece_bytes / 64);
  if (lines.empty()) return static_cast<std::uint32_t>(piece_lines);
  return static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, piece_lines / lines.size()));
}

TEST(Program, SpmmStridesCountDistinctLines) {
  struct Case {
    const char* name;
    sparse::Csb csb;
    bool packed;
  };
  // 16-bit block coordinates, and a block size above 65536 (two blocks
  // per dimension), which stores 32-bit coordinates.
  const Case cases[] = {
      {"fem3d/b64",
       sparse::Csb::from_coo(sparse::gen_fem3d(12, 12, 12, 1, 9), 64), true},
      {"banded/b65600",
       sparse::Csb::from_coo(sparse::gen_banded_random(70000, 400, 0.005),
                             65600),
       false},
  };
  for (const Case& c : cases) {
    ASSERT_EQ(c.csb.packed_coords(), c.packed) << c.name;
    const index_t m = c.csb.rows();
    for (const index_t n : {index_t{1}, index_t{8}}) {
      for (const bool dependency_based : {true, false}) {
        SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n) +
                     (dependency_based ? " dependency" : " reduction"));
        DenseMatrix x(m, n);
        DenseMatrix y(m, n);
        Program prog(&c.csb, {.skip_empty_blocks = true,
                              .dependency_based_spmm = dependency_based,
                              .spmm_buffers = 2});
        const DataId xid = prog.vec("x", &x);
        prog.spmm(xid, prog.vec("y", &y));
        const graph::Tdg g = prog.build();
        index_t checked = 0;
        for (std::size_t id = 0; id < g.task_count(); ++id) {
          const Task& t = g.task(static_cast<graph::TaskId>(id));
          if (t.kind != KernelKind::kSpMV && t.kind != KernelKind::kSpMM) {
            continue;
          }
          const auto xa = std::find_if(
              t.accesses.begin(), t.accesses.end(), [&](const auto& acc) {
                return acc.data_id == static_cast<std::uint32_t>(xid);
              });
          ASSERT_NE(xa, t.accesses.end());
          EXPECT_EQ(xa->stride_lines,
                    reference_input_stride(c.csb, t.bi, t.bj, n, xa->bytes))
              << "block (" << t.bi << "," << t.bj << ")";
          ++checked;
        }
        EXPECT_EQ(checked, c.csb.nonempty_blocks());
      }
    }
  }
}

/// Random DAG of kTasks tasks, each with two forward edges (duplicates
/// allowed); every body stamps the position in which it finished.
struct RandomDag {
  static constexpr int kTasks = 100;
  graph::Tdg g;
  std::vector<int> finish = std::vector<int>(kTasks, -1);
  std::atomic<int> counter{0};

  explicit RandomDag(support::Xoshiro256& rng) {
    for (int i = 0; i < kTasks; ++i) {
      graph::Task t;
      t.body = [this, i] {
        finish[static_cast<std::size_t>(i)] = counter.fetch_add(1);
      };
      g.add_task(std::move(t));
    }
    for (int i = 0; i < kTasks; ++i) {
      for (int rep = 0; rep < 2; ++rep) {
        const int j = i + 1 + static_cast<int>(rng.below(
                                  static_cast<std::uint64_t>(kTasks - i)));
        if (j < kTasks) {
          g.add_edge(static_cast<graph::TaskId>(i),
                     static_cast<graph::TaskId>(j));
        }
      }
    }
  }

  void reset() {
    std::fill(finish.begin(), finish.end(), -1);
    counter = 0;
  }

  /// Every task ran exactly once, after all of its predecessors.
  void expect_complete_run() const {
    ASSERT_EQ(counter.load(), kTasks);
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_GE(finish[static_cast<std::size_t>(i)], 0);
      for (graph::TaskId s : g.successors(static_cast<graph::TaskId>(i))) {
        ASSERT_LT(finish[static_cast<std::size_t>(i)],
                  finish[static_cast<std::size_t>(s)]);
      }
    }
  }
};

TEST(Executor, OmpMatchesSerialOnRandomGraphs) {
  support::Xoshiro256 rng(55);
  for (int trial = 0; trial < 5; ++trial) {
    RandomDag dag(rng);
    execute(dag.g, {.mode = ExecMode::kOmpTasks, .trace = nullptr});
    dag.expect_complete_run();
  }
}

TEST(Executor, PreparedScheduleReplays) {
  support::Xoshiro256 rng(55);
  for (int trial = 0; trial < 5; ++trial) {
    RandomDag dag(rng);
    const Schedule schedule = prepare(dag.g);
    EXPECT_EQ(schedule.graph, &dag.g);
    EXPECT_EQ(schedule.order, dag.g.depth_first_topological_order());
    EXPECT_EQ(schedule.indeg, dag.g.indegrees());
    execute(dag.g, {.mode = ExecMode::kSerial, .trace = nullptr});
    const std::vector<int> fresh = dag.finish;
    for (int rep = 0; rep < 3; ++rep) {
      dag.reset();
      execute(schedule, {.mode = ExecMode::kSerial, .trace = nullptr});
      ASSERT_EQ(dag.finish, fresh) << "serial replay " << rep;
    }
    for (int rep = 0; rep < 3; ++rep) {
      dag.reset();
      execute(schedule, {.mode = ExecMode::kOmpTasks, .trace = nullptr});
      dag.expect_complete_run();
    }
  }
  // Replays of a prepared SpMM program reproduce a fresh run bit for bit
  // (each output piece accumulates along one dependency chain).
  ProgramFixture f;
  DenseMatrix x(f.csb.rows(), 4);
  DenseMatrix y(f.csb.rows(), 4);
  x.fill_random(rng);
  Program prog(&f.csb, {});
  prog.spmm(prog.vec("x", &x), prog.vec("y", &y));
  const graph::Tdg g = prog.build();
  execute(g, {.mode = ExecMode::kSerial, .trace = nullptr});
  const std::vector<double> fresh(y.data(), y.data() + y.size());
  const Schedule schedule = prepare(g);
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kOmpTasks}) {
    for (int rep = 0; rep < 3; ++rep) {
      y.fill(-1.0);
      execute(schedule, {.mode = mode, .trace = nullptr});
      ASSERT_EQ(std::vector<double>(y.data(), y.data() + y.size()), fresh);
    }
  }
}

TEST(Executor, MidGraphThrowSurfacesOneTaskErrorAndSkipsSuccessors) {
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kOmpTasks}) {
    graph::Tdg g;
    std::atomic<bool> ran_pre{false};
    std::atomic<bool> ran_after{false};
    graph::Task pre;
    pre.body = [&] { ran_pre = true; };
    const auto t0 = g.add_task(std::move(pre));
    graph::Task bad;
    bad.kind = graph::KernelKind::kSpMV;
    bad.bi = 2;
    bad.bj = 1;
    bad.body = [] { throw std::runtime_error("boom"); };
    const auto t1 = g.add_task(std::move(bad));
    graph::Task after;
    after.body = [&] { ran_after = true; };
    const auto t2 = g.add_task(std::move(after));
    g.add_edge(t0, t1);
    g.add_edge(t1, t2);
    try {
      execute(g, {.mode = mode, .trace = nullptr});
      FAIL() << "expected TaskError";
    } catch (const support::TaskError& e) {
      EXPECT_EQ(e.task(), "spmv[2,1]");
      EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    }
    EXPECT_TRUE(ran_pre.load());
    EXPECT_FALSE(ran_after.load()); // successor readiness stays poisoned
  }
}

TEST(Executor, ReusableAfterFailure) {
  graph::Tdg bad;
  graph::Task t;
  t.body = [] { throw std::runtime_error("boom"); };
  bad.add_task(std::move(t));
  EXPECT_THROW(execute(bad, {.mode = ExecMode::kOmpTasks, .trace = nullptr}),
               support::TaskError);
  // The failure is contained to that execute() call.
  ProgramFixture f;
  DenseMatrix x(f.csb.rows(), 1);
  DenseMatrix y(f.csb.rows(), 1);
  x.fill(1.0);
  Program prog(&f.csb, {});
  prog.spmm(prog.vec("x", &x), prog.vec("y", &y));
  EXPECT_NO_THROW(
      execute(prog.build(), {.mode = ExecMode::kOmpTasks, .trace = nullptr}));
}

TEST(Executor, PreparedScheduleReusableAfterFailure) {
  support::Xoshiro256 rng(56);
  RandomDag dag(rng);
  const Schedule schedule = prepare(dag.g);
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kOmpTasks}) {
    dag.reset();
    {
      support::fault::ScopedFault inject("ds:task:hit=2");
      EXPECT_THROW(execute(schedule, {.mode = mode, .trace = nullptr}),
                   support::TaskError);
    }
    EXPECT_LT(dag.counter.load(), RandomDag::kTasks);
    // The shared Schedule is untouched by the failed replay.
    dag.reset();
    execute(schedule, {.mode = mode, .trace = nullptr});
    dag.expect_complete_run();
  }
}

TEST(Executor, InjectedFaultNamesFailingTask) {
  support::fault::ScopedFault inject("ds:task:hit=2");
  graph::Tdg g;
  std::array<graph::KernelKind, 3> kinds = {graph::KernelKind::kZero,
                                            graph::KernelKind::kSpMV,
                                            graph::KernelKind::kReduce};
  graph::TaskId prev = 0;
  for (int i = 0; i < 3; ++i) {
    graph::Task t;
    t.kind = kinds[static_cast<std::size_t>(i)];
    t.bi = i;
    const auto id = g.add_task(std::move(t));
    if (i > 0) g.add_edge(prev, id);
    prev = id;
  }
  try {
    execute(g, {.mode = ExecMode::kOmpTasks, .trace = nullptr});
    FAIL() << "expected TaskError from the injected fault";
  } catch (const support::TaskError& e) {
    EXPECT_EQ(e.task(), "spmv[1]"); // second task in the chain
    EXPECT_NE(std::string(e.what()).find("ds:task"), std::string::npos);
  }
}

TEST(Executor, RecordsTraceEvents) {
  ProgramFixture f(32);
  DenseMatrix x(f.csb.rows(), 1);
  DenseMatrix y(f.csb.rows(), 1);
  Program prog(&f.csb, {});
  prog.spmm(prog.vec("x", &x), prog.vec("y", &y));
  const graph::Tdg g = prog.build();
  perf::TraceRecorder trace(8);
  execute(g, {.mode = ExecMode::kOmpTasks, .trace = &trace});
  const auto events = trace.events();
  EXPECT_EQ(events.size(), g.task_count());
  for (const auto& ev : events) {
    EXPECT_GE(ev.end_ns, ev.start_ns);
  }
}

} // namespace
} // namespace sts::ds
