//! Deficit-round-robin fair scheduling across tenants, with priority
//! aging so a tenant starved by heavier neighbours earns extra quantum
//! when its turn comes.
//!
//! The scheduler hands out **one cell grant at a time**: the gateway
//! asks [`DrrScheduler::grant`] which tenant's campaign may advance
//! one cell, supplying a backlog probe. Classic DRR semantics with a
//! unit cell cost: each tenant's deficit refills by its quantum when
//! it comes up with work, drains one per grant, and resets when its
//! backlog empties — so a flooding tenant cannot starve a well-behaved
//! one, and long-waiting tenants are served in bounded time.

use std::collections::HashMap;

/// Per-tenant admission and scheduling policy (uniform across
/// tenants; the fairness comes from DRR, not from per-tenant tuning).
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Cells granted per DRR service opportunity.
    pub quantum: usize,
    /// Upper bound on a tenant's pending (submitted, not yet durable)
    /// cells; submissions beyond it are shed with 429.
    pub max_pending_cells: usize,
    /// Grants a backlogged tenant waits per bonus quantum cell
    /// (priority aging): after `aging_rounds` grants went elsewhere,
    /// its next refill grows by one.
    pub aging_rounds: usize,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            quantum: 4,
            max_pending_cells: 64,
            aging_rounds: 8,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct Credit {
    deficit: usize,
    starved: usize,
}

/// The deficit-round-robin grant loop over registered tenants.
#[derive(Debug)]
pub(crate) struct DrrScheduler {
    quantum: usize,
    aging_rounds: usize,
    order: Vec<String>,
    state: HashMap<String, Credit>,
    cursor: usize,
}

impl DrrScheduler {
    /// A scheduler with the policy's quantum and aging rate.
    pub fn new(policy: &TenantPolicy) -> Self {
        DrrScheduler {
            quantum: policy.quantum.max(1),
            aging_rounds: policy.aging_rounds.max(1),
            order: Vec::new(),
            state: HashMap::new(),
            cursor: 0,
        }
    }

    /// Registers a tenant (idempotent); round-robin order is
    /// first-registration order.
    pub(crate) fn register(&mut self, tenant: &str) {
        if !self.state.contains_key(tenant) {
            self.order.push(tenant.to_string());
            self.state.insert(tenant.to_string(), Credit::default());
        }
    }

    /// Picks the tenant whose campaign may advance one cell, or `None`
    /// when no tenant has backlog. `backlog` reports a tenant's
    /// pending cell count; it is consulted fresh on every grant so the
    /// scheduler never holds stale queue state.
    pub fn grant(&mut self, backlog: impl Fn(&str) -> usize) -> Option<String> {
        let n = self.order.len();
        let mut visited = 0;
        while visited < n {
            let name = self.order[self.cursor].clone();
            let pending = backlog(&name);
            let credit = self.state.get_mut(&name).expect("registered tenant");
            if pending == 0 {
                // Classic DRR: an empty queue forfeits its deficit —
                // idle time cannot be banked into a later burst.
                credit.deficit = 0;
                credit.starved = 0;
                self.cursor = (self.cursor + 1) % n;
                visited += 1;
                continue;
            }
            if credit.deficit == 0 {
                // New service opportunity: quantum plus the aging
                // bonus earned while other tenants were served.
                let bonus = (credit.starved / self.aging_rounds).min(self.quantum);
                credit.deficit = self.quantum + bonus;
                credit.starved = 0;
            }
            credit.deficit -= 1;
            if credit.deficit == 0 {
                self.cursor = (self.cursor + 1) % n;
            }
            // Everyone else with work waited one more grant.
            for other in &self.order {
                if other != &name && backlog(other) > 0 {
                    self.state.get_mut(other).expect("registered").starved += 1;
                }
            }
            return Some(name);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn sched(quantum: usize, aging: usize) -> DrrScheduler {
        DrrScheduler::new(&TenantPolicy {
            quantum,
            max_pending_cells: 1000,
            aging_rounds: aging,
        })
    }

    /// Runs `grants` grants against fixed backlogs, decrementing as
    /// cells are granted; returns per-tenant grant counts.
    fn drive(
        s: &mut DrrScheduler,
        mut backlog: HashMap<String, usize>,
        grants: usize,
    ) -> HashMap<String, usize> {
        let mut got: HashMap<String, usize> = HashMap::new();
        for _ in 0..grants {
            let snapshot = backlog.clone();
            let Some(t) = s.grant(|name| *snapshot.get(name).unwrap_or(&0)) else {
                break;
            };
            *backlog.get_mut(&t).unwrap() -= 1;
            *got.entry(t).or_default() += 1;
        }
        got
    }

    #[test]
    fn equal_backlogs_split_grants_evenly() {
        let mut s = sched(4, 8);
        s.register("a");
        s.register("b");
        let got = drive(
            &mut s,
            [("a".into(), 100), ("b".into(), 100)].into_iter().collect(),
            80,
        );
        assert_eq!(got["a"], 40);
        assert_eq!(got["b"], 40);
    }

    #[test]
    fn a_flooding_tenant_cannot_starve_a_small_one() {
        let mut s = sched(4, 8);
        s.register("flood");
        s.register("small");
        // The small tenant's 10 cells all complete within the first
        // ~20 grants despite the flood's 10_000-cell backlog.
        let got = drive(
            &mut s,
            [("flood".into(), 10_000), ("small".into(), 10)]
                .into_iter()
                .collect(),
            24,
        );
        assert_eq!(got["small"], 10, "the small tenant drains");
        assert!(got["flood"] >= 10, "the flood still progresses");
    }

    #[test]
    fn aging_grows_the_refill_of_a_tenant_that_waited() {
        let mut s = sched(2, 2);
        s.register("a");
        s.register("b");
        // Serve only `a` for a while (b has no work — idle time banks
        // nothing), then give b a backlog: while a finishes its
        // quantum b waits with work, earning one bonus cell per
        // `aging_rounds` waited grants, so b's refills exceed the
        // bare quantum.
        let mut b_backlog = 0usize;
        let mut served_b_quanta: Vec<usize> = Vec::new();
        let mut run = 0usize;
        for round in 0..40 {
            let a_backlog = 1000;
            if round == 10 {
                b_backlog = 1000;
            }
            let t = s
                .grant(|name| if name == "a" { a_backlog } else { b_backlog })
                .unwrap();
            if t == "b" {
                run += 1;
            } else if run > 0 {
                served_b_quanta.push(run);
                run = 0;
            }
        }
        if run > 0 {
            served_b_quanta.push(run);
        }
        assert!(
            served_b_quanta.first().copied().unwrap_or(0) >= 2,
            "b's first service opportunity carries at least its quantum: {served_b_quanta:?}"
        );
        assert!(
            served_b_quanta.iter().any(|&q| q > 2),
            "waiting with backlog must earn a bonus beyond the quantum: {served_b_quanta:?}"
        );
    }

    #[test]
    fn no_backlog_means_no_grant_and_registration_is_idempotent() {
        let mut s = sched(4, 8);
        s.register("a");
        s.register("a");
        assert_eq!(s.order.len(), 1);
        assert_eq!(s.grant(|_| 0), None);
    }
}
