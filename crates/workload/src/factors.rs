//! The experimental design of the paper's Section 3.1: factors,
//! levels, and the factor space of Figure 1.
//!
//! Response variables are wall-clock times of the classic and PME
//! energy calculations, their computation / communication /
//! synchronization breakdown, and per-node communication speeds.

use cpc_cluster::{ClusterConfig, NetworkKind};
use cpc_mpi::Middleware;
use serde::{Deserialize, Serialize};

/// Node configuration factor: CPUs per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeConfig {
    /// One CPU per node.
    Uni,
    /// Two CPUs per node (shared memory and NIC).
    Dual,
}

impl NodeConfig {
    /// Both levels.
    pub const ALL: [NodeConfig; 2] = [NodeConfig::Uni, NodeConfig::Dual];

    /// CPUs per node.
    pub fn cpus(self) -> usize {
        match self {
            NodeConfig::Uni => 1,
            NodeConfig::Dual => 2,
        }
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            NodeConfig::Uni => "uni-processor",
            NodeConfig::Dual => "dual-processor",
        }
    }
}

/// One cell of the factor space (Figure 1), together with a processor
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExperimentPoint {
    /// Networking factor.
    pub network: NetworkKind,
    /// Middleware factor.
    pub middleware: Middleware,
    /// CPUs-per-node factor.
    pub node: NodeConfig,
    /// Number of processors used by the calculation.
    pub procs: usize,
}

impl ExperimentPoint {
    /// The paper's focal point: MPICH over TCP/IP on Gigabit Ethernet,
    /// MPI middleware, uni-processor nodes.
    pub fn focal(procs: usize) -> Self {
        ExperimentPoint {
            network: NetworkKind::TcpGigE,
            middleware: Middleware::Mpi,
            node: NodeConfig::Uni,
            procs,
        }
    }

    /// The cluster configuration for this point.
    pub fn cluster(&self) -> ClusterConfig {
        match self.node {
            NodeConfig::Uni => ClusterConfig::uni(self.procs, self.network),
            NodeConfig::Dual => ClusterConfig::dual(self.procs, self.network),
        }
    }

    /// Compact label for tables.
    pub fn label(&self) -> String {
        format!(
            "{} / {} / {} / p={}",
            self.network.label(),
            self.middleware.label(),
            self.node.label(),
            self.procs
        )
    }
}

/// The paper's full factorial design over the three *platform* factors
/// (3 networks x 2 middlewares x 2 node configurations = 12 cells),
/// each evaluated at every processor count in `proc_counts`.
///
/// Fast Ethernet is excluded, as in the paper (handled in \[17\]).
pub fn full_factorial(proc_counts: &[usize]) -> Vec<ExperimentPoint> {
    let networks = [
        NetworkKind::TcpGigE,
        NetworkKind::ScoreGigE,
        NetworkKind::MyrinetGm,
    ];
    let mut points = Vec::new();
    for &network in &networks {
        for middleware in Middleware::ALL {
            for node in NodeConfig::ALL {
                for &procs in proc_counts {
                    points.push(ExperimentPoint {
                        network,
                        middleware,
                        node,
                        procs,
                    });
                }
            }
        }
    }
    points
}

/// The paper's processor counts for the scaling figures.
pub const PAPER_PROC_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_factorial_has_twelve_cells() {
        let points = full_factorial(&[4]);
        assert_eq!(points.len(), 12);
        // All distinct.
        let mut set = std::collections::HashSet::new();
        for p in &points {
            assert!(set.insert(*p));
        }
    }

    #[test]
    fn full_factorial_scales_with_proc_counts() {
        assert_eq!(full_factorial(&PAPER_PROC_COUNTS).len(), 48);
    }

    #[test]
    fn focal_point_is_reference_configuration() {
        let f = ExperimentPoint::focal(8);
        assert_eq!(f.network, NetworkKind::TcpGigE);
        assert_eq!(f.middleware, Middleware::Mpi);
        assert_eq!(f.node, NodeConfig::Uni);
        let c = f.cluster();
        assert_eq!(c.cpus_per_node, 1);
        assert_eq!(c.ranks, 8);
    }

    #[test]
    fn dual_cluster_mapping() {
        let p = ExperimentPoint {
            network: NetworkKind::MyrinetGm,
            middleware: Middleware::Mpi,
            node: NodeConfig::Dual,
            procs: 8,
        };
        assert_eq!(p.cluster().nodes(), 4);
    }

    #[test]
    fn labels_are_informative() {
        let l = ExperimentPoint::focal(4).label();
        assert!(l.contains("TCP/IP"));
        assert!(l.contains("MPI"));
        assert!(l.contains("p=4"));
    }
}
