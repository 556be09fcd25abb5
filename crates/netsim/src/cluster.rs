//! Cluster configuration: the three platform factors of the paper's
//! experimental design (network, middleware lives in `cpc-mpi`, CPUs
//! per node) plus the cost model.

use crate::cost::{CostModel, CpuConfig};
use crate::netmodel::NetworkKind;
use serde::{Deserialize, Serialize};

/// Configuration of a virtual cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of MPI ranks (the paper's "number of processors").
    pub ranks: usize,
    /// CPUs per node: 1 (uni-processor) or 2 (dual-processor).
    pub cpus_per_node: usize,
    /// Network technology + communication software.
    pub network: NetworkKind,
    /// Node CPU configuration.
    pub cpu: CpuConfig,
    /// Operation cost model.
    pub cost: CostModel,
    /// Seed for deterministic jitter.
    pub seed: u64,
    /// Record a per-message trace in each rank's statistics.
    pub record_trace: bool,
    /// Heterogeneous clusters: the first `slow_nodes` nodes run at
    /// `slow_factor` times the configured clock (e.g. 0.5 = half
    /// speed). Models mixing old and new hardware in one machine.
    pub slow_nodes: usize,
    /// Clock multiplier for the slow nodes (1.0 = homogeneous).
    pub slow_factor: f64,
}

impl ClusterConfig {
    /// Uni-processor cluster on the given network (the common case).
    pub fn uni(ranks: usize, network: NetworkKind) -> Self {
        ClusterConfig {
            ranks,
            cpus_per_node: 1,
            network,
            cpu: CpuConfig::default(),
            cost: CostModel::default(),
            seed: 2002,
            record_trace: false,
            slow_nodes: 0,
            slow_factor: 1.0,
        }
    }

    /// Marks the first `slow_nodes` nodes as running at `slow_factor`
    /// times the base clock.
    pub fn with_slow_nodes(mut self, slow_nodes: usize, slow_factor: f64) -> Self {
        assert!(slow_factor > 0.0);
        self.slow_nodes = slow_nodes;
        self.slow_factor = slow_factor;
        self
    }

    /// Dual-processor cluster: ranks are packed two per node.
    pub fn dual(ranks: usize, network: NetworkKind) -> Self {
        ClusterConfig {
            cpus_per_node: 2,
            ..Self::uni(ranks, network)
        }
    }

    /// Node hosting a rank (ranks are packed densely).
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.cpus_per_node
    }

    /// Number of nodes in use.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.cpus_per_node)
    }

    /// Ranks sharing the node of `rank` (1 or 2).
    pub fn ranks_on_node_of(&self, rank: usize) -> usize {
        let node = self.node_of(rank);
        let first = node * self.cpus_per_node;
        let last = ((node + 1) * self.cpus_per_node).min(self.ranks);
        last - first
    }

    /// Compute-time multiplier for a rank: clock scaling (including the
    /// heterogeneous slow-node factor) plus memory contention when the
    /// node is shared.
    pub fn compute_scale(&self, rank: usize) -> f64 {
        let node_clock = if self.node_of(rank) < self.slow_nodes {
            self.cpu.ghz * self.slow_factor
        } else {
            self.cpu.ghz
        };
        let base = 1.0 / node_clock;
        if self.ranks_on_node_of(rank) > 1 {
            base * self.cpu.smp_memory_contention
        } else {
            base
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks == 0 {
            return Err("at least one rank required".into());
        }
        if !(1..=2).contains(&self.cpus_per_node) {
            return Err(format!(
                "cpus_per_node must be 1 or 2, got {}",
                self.cpus_per_node
            ));
        }
        if self.cpu.ghz <= 0.0 {
            return Err("cpu clock must be positive".into());
        }
        if self.slow_factor <= 0.0 {
            return Err("slow_factor must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uni_mapping() {
        let c = ClusterConfig::uni(8, NetworkKind::TcpGigE);
        assert_eq!(c.nodes(), 8);
        assert_eq!(c.node_of(5), 5);
        assert_eq!(c.ranks_on_node_of(5), 1);
        assert_eq!(c.compute_scale(0), 1.0);
        c.validate().unwrap();
    }

    #[test]
    fn dual_mapping() {
        let c = ClusterConfig::dual(8, NetworkKind::MyrinetGm);
        assert_eq!(c.nodes(), 4);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(1), 0);
        assert_eq!(c.node_of(2), 1);
        assert_eq!(c.ranks_on_node_of(3), 2);
        assert!(c.compute_scale(0) > 1.0, "memory contention applies");
    }

    #[test]
    fn dual_with_odd_rank_count() {
        let c = ClusterConfig::dual(5, NetworkKind::ScoreGigE);
        assert_eq!(c.nodes(), 3);
        // Rank 4 is alone on node 2: no contention.
        assert_eq!(c.ranks_on_node_of(4), 1);
        assert_eq!(c.compute_scale(4), 1.0);
        assert!(c.compute_scale(0) > 1.0);
    }

    #[test]
    fn heterogeneous_nodes_scale_differently() {
        let c = ClusterConfig::uni(4, NetworkKind::MyrinetGm).with_slow_nodes(2, 0.5);
        // First two nodes at half speed: compute takes twice as long.
        assert_eq!(c.compute_scale(0), 2.0);
        assert_eq!(c.compute_scale(1), 2.0);
        assert_eq!(c.compute_scale(2), 1.0);
        assert_eq!(c.compute_scale(3), 1.0);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = ClusterConfig::uni(0, NetworkKind::TcpGigE);
        assert!(c.validate().is_err());
        c.ranks = 4;
        c.cpus_per_node = 3;
        assert!(c.validate().is_err());
    }
}
