// Worker partitions: the machine slices that back the dispatcher's K job
// slots (DESIGN.md §15).
//
// A Partition is a contiguous, NUMA-domain-aligned set of CPUs carved from
// a topo::Machine by support::topo::partition_cpus. Slot i always owns
// carve(...)[i] and runs one job at a time on it, so two concurrently
// running jobs never share a NUMA domain unless slots > nodes forced the
// carve to subdivide a node.
#pragma once

#include <string>
#include <vector>

#include "support/topology.hpp"

namespace sts::svc::dispatch {

/// One slot's share of the machine.
struct Partition {
  unsigned slot = 0;        // owning dispatcher slot index
  std::vector<int> cpus;    // ascending cpu ids; never empty
  std::vector<int> domains; // distinct NUMA node ids covered, ascending

  /// "0-3" / "0-1,4" — the sysfs cpulist form, for `stsctl queue` tables.
  [[nodiscard]] std::string cpulist() const;
};

/// Carves `machine` into `slots` partitions via topo::partition_cpus and
/// annotates each with its slot index and covered domains. The result size
/// is partition_cpus' clamp of `slots` to [1, cpu_count].
[[nodiscard]] std::vector<Partition> carve(const support::topo::Machine& m,
                                           unsigned slots);

} // namespace sts::svc::dispatch
