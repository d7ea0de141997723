#include "core/placement.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "common/string_util.h"
#include "telemetry/types.h"

namespace cloudsurv::core {

namespace {

using telemetry::kSecondsPerDay;
using telemetry::SloLadder;
using telemetry::Timestamp;

enum class ReplayEventKind { kRelease = 0, kResize = 1, kPlace = 2 };

struct ReplayEvent {
  Timestamp ts;
  ReplayEventKind kind;
  /// Sort rank of this event's database within its second: the kind of
  /// the database's first event in that second (BuildReplayEvents).
  ReplayEventKind phase = ReplayEventKind::kRelease;
  telemetry::DatabaseId db;
  int dtus = 0;       ///< For kPlace: initial DTUs. For kResize: new DTUs.
  Pool pool = Pool::kGeneral;
  /// For kRelease: true when the tenant really dropped inside the
  /// window (vs the synthetic end-of-window release of a survivor).
  bool observed_drop = false;
  /// Position in its database's lifecycle (place 0, resizes, release).
  uint32_t seq = 0;
};

struct Server {
  int free_dtus = 0;
  int tenants = 0;
  bool churn_cluster = false;
};

/// Builds the chronologically sorted create/resize/release stream both
/// replays share. Ordering at equal timestamps: one database's own
/// lifecycle stays causal (place, resize, release — zero-lifetime
/// databases drop in the second they are created); across databases,
/// capacity is freed before new placements consume it. A database with
/// several events in one second keeps them together, ranked by its
/// first one: a database placed and dropped in the same second ranks
/// with that second's placements. The key (ts, phase, db, seq) is a
/// strict total order; comparing kinds across databases directly is
/// not transitive once one database has two events in a second.
std::vector<ReplayEvent> BuildReplayEvents(
    const telemetry::TelemetryStore& store) {
  std::vector<ReplayEvent> events;
  for (const auto& record : store.databases()) {
    const size_t first = events.size();
    ReplayEvent place;
    place.ts = record.created_at;
    place.kind = ReplayEventKind::kPlace;
    place.db = record.id;
    place.dtus = SloLadder()[record.initial_slo_index].dtus;
    events.push_back(place);
    for (const auto& change : record.slo_changes) {
      if (change.timestamp >= store.window_end()) continue;
      ReplayEvent resize;
      resize.ts = change.timestamp;
      resize.kind = ReplayEventKind::kResize;
      resize.db = record.id;
      resize.dtus = SloLadder()[change.new_slo_index].dtus;
      events.push_back(resize);
    }
    ReplayEvent release;
    release.ts = record.dropped_at.has_value()
                     ? std::min(*record.dropped_at, store.window_end())
                     : store.window_end();
    release.kind = ReplayEventKind::kRelease;
    release.db = record.id;
    release.observed_drop =
        record.dropped_at.has_value() && *record.dropped_at <= store.window_end();
    events.push_back(release);
    // The lifecycle is in time order, so each second's events of this
    // database are adjacent and the first of them sets their phase.
    for (size_t i = first; i < events.size(); ++i) {
      events[i].seq = static_cast<uint32_t>(i - first);
      events[i].phase = i > first && events[i - 1].ts == events[i].ts
                            ? events[i - 1].phase
                            : events[i].kind;
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ReplayEvent& a, const ReplayEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.phase != b.phase) return a.phase < b.phase;
              if (a.db != b.db) return a.db < b.db;
              return a.seq < b.seq;
            });
  return events;
}

}  // namespace

std::string PlacementReport::ToString() const {
  return "placements=" + std::to_string(placements) +
         " rejected=" + std::to_string(rejected) +
         " servers_used=" + std::to_string(servers_used) +
         " peak_active=" + std::to_string(peak_active_servers) +
         " peak_dtus=" + std::to_string(peak_occupied_dtus) +
         " packing_overhead=" + FormatDouble(packing_overhead, 3) +
         " mean_fragmentation=" + FormatDouble(mean_fragmentation, 3);
}

Result<PlacementReport> SimulatePlacement(
    const telemetry::TelemetryStore& store, const PoolAssignmentPlan& plan,
    const ClusterConfig& config) {
  if (!store.finalized()) {
    return Status::FailedPrecondition("store is not finalized");
  }
  if (config.server_capacity_dtus <= 0) {
    return Status::InvalidArgument("server capacity must be positive");
  }

  std::vector<ReplayEvent> events = BuildReplayEvents(store);
  for (ReplayEvent& event : events) {
    if (event.kind == ReplayEventKind::kPlace) {
      event.pool = plan.PoolOf(event.db);
    }
  }

  std::vector<Server> servers;
  // db -> (server index, occupied dtus); flat map keyed by database id.
  std::unordered_map<telemetry::DatabaseId, std::pair<size_t, int>> placed;

  PlacementReport report;
  int64_t occupied = 0;
  size_t active_servers = 0;
  double frag_weighted_sum = 0.0;
  int64_t frag_time = 0;
  Timestamp prev_ts = store.window_start();

  auto ideal_servers = [&](int64_t dtus) {
    return static_cast<size_t>(
        (dtus + config.server_capacity_dtus - 1) /
        config.server_capacity_dtus);
  };

  for (const ReplayEvent& event : events) {
    // Accumulate time-weighted fragmentation over [prev_ts, event.ts).
    if (event.ts > prev_ts && active_servers > 0) {
      const double capacity_total =
          static_cast<double>(active_servers) *
          static_cast<double>(config.server_capacity_dtus);
      const double frag =
          (capacity_total - static_cast<double>(occupied)) / capacity_total;
      frag_weighted_sum += frag * static_cast<double>(event.ts - prev_ts);
      frag_time += event.ts - prev_ts;
    }
    prev_ts = std::max(prev_ts, event.ts);

    switch (event.kind) {
      case ReplayEventKind::kPlace: {
        if (event.dtus > config.server_capacity_dtus) {
          ++report.rejected;
          break;
        }
        const bool want_churn_cluster =
            config.segregate_churn_pool && event.pool == Pool::kChurn;
        size_t chosen = servers.size();
        for (size_t s = 0; s < servers.size(); ++s) {
          if (servers[s].churn_cluster != want_churn_cluster) continue;
          if (servers[s].free_dtus >= event.dtus) {
            chosen = s;
            break;
          }
        }
        if (chosen == servers.size()) {
          Server fresh;
          fresh.free_dtus = config.server_capacity_dtus;
          fresh.churn_cluster = want_churn_cluster;
          servers.push_back(fresh);
          ++report.servers_used;
        }
        Server& server = servers[chosen];
        if (server.tenants == 0) ++active_servers;
        server.free_dtus -= event.dtus;
        server.tenants += 1;
        occupied += event.dtus;
        placed[event.db] = {chosen, event.dtus};
        ++report.placements;
        break;
      }
      case ReplayEventKind::kResize: {
        auto it = placed.find(event.db);
        if (it == placed.end()) break;
        auto& [server_index, dtus] = it->second;
        Server& server = servers[server_index];
        const int delta = event.dtus - dtus;
        // A grow that no longer fits forces a move to another server.
        if (delta > 0 && server.free_dtus < delta) {
          server.free_dtus += dtus;
          server.tenants -= 1;
          if (server.tenants == 0) --active_servers;
          occupied -= dtus;
          placed.erase(it);
          if (event.dtus > config.server_capacity_dtus) {
            // The tenant outgrew any server; it can no longer be
            // hosted on this cluster tier.
            ++report.rejected;
            break;
          }
          ReplayEvent replace = event;
          replace.kind = ReplayEventKind::kPlace;
          replace.pool = plan.PoolOf(event.db);
          // Re-run the placement logic inline.
          const bool want_churn_cluster =
              config.segregate_churn_pool && replace.pool == Pool::kChurn;
          size_t chosen = servers.size();
          for (size_t s = 0; s < servers.size(); ++s) {
            if (servers[s].churn_cluster != want_churn_cluster) continue;
            if (servers[s].free_dtus >= replace.dtus) {
              chosen = s;
              break;
            }
          }
          if (chosen == servers.size()) {
            Server fresh;
            fresh.free_dtus = config.server_capacity_dtus;
            fresh.churn_cluster = want_churn_cluster;
            servers.push_back(fresh);
            ++report.servers_used;
          }
          Server& target = servers[chosen];
          if (target.tenants == 0) ++active_servers;
          target.free_dtus -= replace.dtus;
          target.tenants += 1;
          occupied += replace.dtus;
          placed[event.db] = {chosen, replace.dtus};
        } else {
          server.free_dtus -= delta;
          occupied += delta;
          dtus = event.dtus;
        }
        break;
      }
      case ReplayEventKind::kRelease: {
        auto it = placed.find(event.db);
        if (it == placed.end()) break;
        Server& server = servers[it->second.first];
        server.free_dtus += it->second.second;
        server.tenants -= 1;
        if (server.tenants == 0) --active_servers;
        occupied -= it->second.second;
        placed.erase(it);
        break;
      }
    }

    if (active_servers > report.peak_active_servers) {
      report.peak_active_servers = active_servers;
      // Packing quality at the moment the fleet is largest: how many
      // servers are open vs the bin-packing lower bound for the same
      // occupancy.
      report.packing_overhead =
          occupied > 0 ? static_cast<double>(active_servers) /
                             static_cast<double>(ideal_servers(occupied))
                       : 1.0;
    }
    report.peak_occupied_dtus =
        std::max(report.peak_occupied_dtus, occupied);
  }
  report.mean_fragmentation =
      frag_time > 0 ? frag_weighted_sum / static_cast<double>(frag_time)
                    : 0.0;
  return report;
}

std::string DeploymentReport::ToString() const {
  std::string out =
      "databases=" + std::to_string(num_databases) +
      " placements=" + std::to_string(placements) +
      " rejected=" + std::to_string(rejected) +
      " moves=" + std::to_string(moves) +
      " spillovers=" + std::to_string(spillovers) +
      " disruptions=" + std::to_string(disruptions) +
      " avoided=" + std::to_string(avoided_disruptions) +
      " transparent=" + std::to_string(transparent_disruptions) +
      " sla_violations=" + std::to_string(sla_violations) +
      " node_days=" + FormatDouble(node_days, 1) +
      " infra_cost=" + FormatDouble(infra_cost, 2) +
      " ops_cost=" + FormatDouble(ops_cost, 2) +
      " total_cost=" + FormatDouble(total_cost, 2) +
      " mean_fragmentation=" + FormatDouble(mean_fragmentation, 3);
  return out;
}

std::string DeploymentReport::ToJson() const {
  std::string out = "{";
  out += "\"num_databases\": " + std::to_string(num_databases);
  out += ", \"placements\": " + std::to_string(placements);
  out += ", \"rejected\": " + std::to_string(rejected);
  out += ", \"moves\": " + std::to_string(moves);
  out += ", \"spillovers\": " + std::to_string(spillovers);
  out += ", \"disruptions\": " + std::to_string(disruptions);
  out += ", \"avoided_disruptions\": " + std::to_string(avoided_disruptions);
  out += ", \"transparent_disruptions\": " +
         std::to_string(transparent_disruptions);
  out += ", \"sla_violations\": " + std::to_string(sla_violations);
  out += ", \"node_days\": " + FormatDouble(node_days, 3);
  out += ", \"infra_cost\": " + FormatDouble(infra_cost, 2);
  out += ", \"ops_cost\": " + FormatDouble(ops_cost, 2);
  out += ", \"total_cost\": " + FormatDouble(total_cost, 2);
  out += ", \"mean_fragmentation\": " + FormatDouble(mean_fragmentation, 4);
  out += ", \"per_architecture\": [";
  for (size_t i = 0; i < per_architecture.size(); ++i) {
    const ArchitectureUsage& u = per_architecture[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + u.name + "\"";
    out += ", \"placements\": " + std::to_string(u.placements);
    out += ", \"nodes_used\": " + std::to_string(u.nodes_used);
    out += ", \"peak_active_nodes\": " + std::to_string(u.peak_active_nodes);
    out += ", \"node_days\": " + FormatDouble(u.node_days, 3);
    out += ", \"infra_cost\": " + FormatDouble(u.infra_cost, 2);
    out += ", \"ops_cost\": " + FormatDouble(u.ops_cost, 2);
    out += ", \"mean_fragmentation\": " + FormatDouble(u.mean_fragmentation, 4);
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

struct DeployNode {
  int free_dtus = 0;
  int tenants = 0;
};

struct ArchFleet {
  std::vector<DeployNode> nodes;
  size_t active = 0;       ///< Non-empty nodes right now.
  int64_t occupied = 0;    ///< Occupied DTUs right now.
  double node_seconds = 0.0;
  double frag_weighted = 0.0;
  double active_seconds = 0.0;
};

struct DeployedTenant {
  size_t arch = 0;
  size_t node = 0;
  int dtus = 0;
  Timestamp created = 0;
};

}  // namespace

Result<DeploymentReport> SimulateDeployment(
    const telemetry::TelemetryStore& store,
    const ArchitectureAssignmentPlan& plan,
    const ArchitectureCatalog& catalog, const DeploymentConfig& config) {
  if (!store.finalized()) {
    return Status::FailedPrecondition("store is not finalized");
  }
  if (config.maintenance_interval_days <= 0.0 ||
      config.stale_grace_days <= 0.0) {
    return Status::InvalidArgument("intervals must be positive");
  }
  if (catalog.size() == 0) {
    return Status::InvalidArgument("catalog is empty");
  }
  if (plan.default_index >= catalog.size()) {
    return Status::InvalidArgument("plan default_index out of range");
  }
  for (const auto& [db, arch] : plan.assignments) {
    if (arch >= catalog.size()) {
      return Status::InvalidArgument(
          "plan assigns database " + std::to_string(db) +
          " to architecture index " + std::to_string(arch) +
          ", catalog has " + std::to_string(catalog.size()));
    }
  }

  DeploymentReport report;
  report.num_databases = store.num_databases();
  report.per_architecture.resize(catalog.size());
  for (size_t a = 0; a < catalog.size(); ++a) {
    report.per_architecture[a].name = catalog.at(a).name();
  }

  const Timestamp window_start = store.window_start();
  const Timestamp window_end = store.window_end();
  std::vector<Timestamp> rollouts;
  const int64_t interval_s = static_cast<int64_t>(
      config.maintenance_interval_days * static_cast<double>(kSecondsPerDay));
  for (Timestamp t = window_start + interval_s; t < window_end;
       t += interval_s) {
    rollouts.push_back(t);
  }
  const int64_t grace_s = static_cast<int64_t>(
      config.stale_grace_days * static_cast<double>(kSecondsPerDay));

  std::vector<ArchFleet> fleets(catalog.size());
  // Ordered map so rollout sweeps (and their floating-point cost sums)
  // visit tenants in a platform-independent order.
  std::map<telemetry::DatabaseId, DeployedTenant> tenants;
  double global_frag_weighted = 0.0;
  double global_active_seconds = 0.0;
  Timestamp prev_ts = window_start;

  auto advance_time = [&](Timestamp to) {
    if (to <= prev_ts) return;
    const double dt = static_cast<double>(to - prev_ts);
    double total_capacity = 0.0;
    double total_occupied = 0.0;
    for (size_t a = 0; a < fleets.size(); ++a) {
      ArchFleet& fleet = fleets[a];
      if (fleet.active == 0) continue;
      const double capacity =
          static_cast<double>(fleet.active) *
          static_cast<double>(catalog.at(a).node_capacity_dtus());
      fleet.node_seconds += static_cast<double>(fleet.active) * dt;
      fleet.frag_weighted +=
          (capacity - static_cast<double>(fleet.occupied)) / capacity * dt;
      fleet.active_seconds += dt;
      total_capacity += capacity;
      total_occupied += static_cast<double>(fleet.occupied);
    }
    if (total_capacity > 0.0) {
      global_frag_weighted +=
          (total_capacity - total_occupied) / total_capacity * dt;
      global_active_seconds += dt;
    }
    prev_ts = to;
  };

  // Places `dtus` for `db`, cascading preferred -> default -> first
  // fitting tier. Returns false when no architecture's node can ever
  // host the SLO.
  auto place_tenant = [&](telemetry::DatabaseId db, int dtus,
                          Timestamp created, size_t preferred) {
    size_t arch = catalog.size();
    for (size_t candidate :
         {preferred, plan.default_index}) {
      if (catalog.at(candidate).node_capacity_dtus() >= dtus) {
        arch = candidate;
        break;
      }
    }
    if (arch == catalog.size()) {
      for (size_t a = 0; a < catalog.size(); ++a) {
        if (catalog.at(a).node_capacity_dtus() >= dtus) {
          arch = a;
          break;
        }
      }
    }
    if (arch == catalog.size()) return false;
    if (arch != preferred) ++report.spillovers;
    ArchFleet& fleet = fleets[arch];
    size_t chosen = fleet.nodes.size();
    for (size_t n = 0; n < fleet.nodes.size(); ++n) {
      if (fleet.nodes[n].free_dtus >= dtus) {
        chosen = n;
        break;
      }
    }
    if (chosen == fleet.nodes.size()) {
      DeployNode fresh;
      fresh.free_dtus = catalog.at(arch).node_capacity_dtus();
      fleet.nodes.push_back(fresh);
      ++report.per_architecture[arch].nodes_used;
    }
    DeployNode& node = fleet.nodes[chosen];
    if (node.tenants == 0) {
      ++fleet.active;
      report.per_architecture[arch].peak_active_nodes = std::max(
          report.per_architecture[arch].peak_active_nodes, fleet.active);
    }
    node.free_dtus -= dtus;
    node.tenants += 1;
    fleet.occupied += dtus;
    report.per_architecture[arch].ops_cost += catalog.at(arch).attach_cost();
    tenants[db] = DeployedTenant{arch, chosen, dtus, created};
    return true;
  };

  auto detach_tenant = [&](std::map<telemetry::DatabaseId,
                                    DeployedTenant>::iterator it) {
    const DeployedTenant& tenant = it->second;
    ArchFleet& fleet = fleets[tenant.arch];
    DeployNode& node = fleet.nodes[tenant.node];
    node.free_dtus += tenant.dtus;
    node.tenants -= 1;
    if (node.tenants == 0) --fleet.active;
    fleet.occupied -= tenant.dtus;
    tenants.erase(it);
  };

  auto do_rollout = [&](Timestamp ts) {
    for (const auto& [db, tenant] : tenants) {
      const Architecture& arch = catalog.at(tenant.arch);
      if (arch.defers_maintenance()) {
        if (ts < tenant.created + grace_s) {
          ++report.avoided_disruptions;
          continue;
        }
        // Past the grace period the rollout force-updates the tenant.
        ++report.disruptions;
        ++report.sla_violations;
      } else if (arch.transparent_maintenance()) {
        ++report.transparent_disruptions;
      } else {
        ++report.disruptions;
        ++report.sla_violations;
      }
      report.per_architecture[tenant.arch].ops_cost +=
          arch.DisruptionCost(tenant.dtus);
    }
  };

  const std::vector<ReplayEvent> events = BuildReplayEvents(store);
  size_t next_rollout = 0;
  for (const ReplayEvent& event : events) {
    while (next_rollout < rollouts.size() &&
           rollouts[next_rollout] < event.ts) {
      advance_time(rollouts[next_rollout]);
      do_rollout(rollouts[next_rollout]);
      ++next_rollout;
    }
    advance_time(event.ts);

    switch (event.kind) {
      case ReplayEventKind::kPlace: {
        const size_t preferred = plan.ArchitectureOf(event.db);
        if (place_tenant(event.db, event.dtus, event.ts, preferred)) {
          ++report.placements;
          ++report.per_architecture[tenants[event.db].arch].placements;
        } else {
          ++report.rejected;
          ++report.sla_violations;
        }
        break;
      }
      case ReplayEventKind::kResize: {
        auto it = tenants.find(event.db);
        if (it == tenants.end()) break;
        DeployedTenant& tenant = it->second;
        ArchFleet& fleet = fleets[tenant.arch];
        DeployNode& node = fleet.nodes[tenant.node];
        const int delta = event.dtus - tenant.dtus;
        if (delta <= node.free_dtus) {
          node.free_dtus -= delta;
          fleet.occupied += delta;
          tenant.dtus = event.dtus;
          break;
        }
        // The grow no longer fits: relocate (tenant-visible).
        const Timestamp created = tenant.created;
        const size_t old_arch = tenant.arch;
        report.per_architecture[old_arch].ops_cost +=
            catalog.at(old_arch).detach_cost();
        detach_tenant(it);
        if (place_tenant(event.db, event.dtus, created,
                         plan.ArchitectureOf(event.db))) {
          ++report.moves;
          ++report.sla_violations;
        } else {
          ++report.rejected;
          ++report.sla_violations;
        }
        break;
      }
      case ReplayEventKind::kRelease: {
        auto it = tenants.find(event.db);
        if (it == tenants.end()) break;
        // Survivors released at window end are an accounting artifact,
        // not a real departure — no detach work is charged for them.
        if (event.observed_drop) {
          report.per_architecture[it->second.arch].ops_cost +=
              catalog.at(it->second.arch).detach_cost();
        }
        detach_tenant(it);
        break;
      }
    }
  }
  while (next_rollout < rollouts.size()) {
    advance_time(rollouts[next_rollout]);
    do_rollout(rollouts[next_rollout]);
    ++next_rollout;
  }

  for (size_t a = 0; a < catalog.size(); ++a) {
    ArchitectureUsage& usage = report.per_architecture[a];
    usage.node_days =
        fleets[a].node_seconds / static_cast<double>(kSecondsPerDay);
    usage.infra_cost = usage.node_days * catalog.at(a).node_price_per_day();
    usage.mean_fragmentation =
        fleets[a].active_seconds > 0.0
            ? fleets[a].frag_weighted / fleets[a].active_seconds
            : 0.0;
    report.node_days += usage.node_days;
    report.infra_cost += usage.infra_cost;
    report.ops_cost += usage.ops_cost;
  }
  report.total_cost = report.infra_cost + report.ops_cost;
  report.mean_fragmentation =
      global_active_seconds > 0.0
          ? global_frag_weighted / global_active_seconds
          : 0.0;
  return report;
}

}  // namespace cloudsurv::core
