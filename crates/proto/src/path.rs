//! The path manager: runtime address advertisement and subflow lifecycle.
//!
//! Real MPTCP stacks do not fix their subflows at connect time: a *path
//! manager* advertises additional addresses (`ADD_ADDR`), withdraws them
//! (`REMOVE_ADDR`), and joins or tears down subflows while the connection
//! runs — the `ip mptcp` endpoint model of the Linux kernel. This module
//! implements that surface for the userspace endpoint:
//!
//! * a per-connection **subflow limit**;
//! * deterministic **advertisement retransmission**: every `ADD_ADDR` and
//!   `REMOVE_ADDR` carries an echo bit and is retransmitted on a fixed
//!   [`ADVERT_RTO`] until the peer's echo arrives (RFC 8684 echoes
//!   `ADD_ADDR` only; we extend the rule to `REMOVE_ADDR` so withdrawals
//!   are equally loss-proof — the difference is documented on
//!   [`crate::segment::MptcpOption::RemoveAddr`]);
//! * a [`PathEvent`] stream telling the owning [`crate::Endpoint`] which
//!   joins and teardowns a received option implies.
//!
//! Addresses are identified by `addr_id`, which in this flat model is the
//! wire/subflow index shared by both ends — there is no address rewriting
//! between the endpoints, so no token-to-address indirection is needed.
//! Nor is there a table of the kernel's per-endpoint flags (`signal` /
//! `subflow` / `backup` / `fullmesh`): backup priority lives on the
//! subflow, and the client joins whatever is advertised, up to the limit.

use crate::segment::MptcpOption;
use crate::Micros;

/// Retransmission interval for unacknowledged `ADD_ADDR`/`REMOVE_ADDR`
/// advertisements (same fixed timer as the handshake's SYN retransmit).
pub(crate) const ADVERT_RTO: Micros = 500_000;

/// What kind of advertisement is pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdvertKind {
    Add { backup: bool },
    Remove,
}

/// A signed advertisement awaiting the peer's echo.
#[derive(Debug, Clone, Copy)]
struct Advert {
    addr_id: u8,
    kind: AdvertKind,
    /// Last transmission time (`None` = never sent).
    sent_at: Option<Micros>,
    echoed: bool,
}

/// Action a received path-manager option implies for the owning endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PathEvent {
    /// Peer advertised `addr_id`: join a subflow there (subject to the
    /// local subflow limit and role).
    Join {
        /// Advertised address identifier.
        addr_id: u8,
        /// Join at backup priority.
        backup: bool,
    },
    /// Peer withdrew `addr_id`: tear the corresponding subflow down.
    Close {
        /// Withdrawn address identifier.
        addr_id: u8,
    },
}

/// Per-connection path-management state: the subflow limit and the
/// advertisement retransmission machinery.
#[derive(Debug)]
pub(crate) struct PathManager {
    subflow_limit: usize,
    adverts: Vec<Advert>,
    /// Echoes owed to the peer, sent on the next outgoing opportunity.
    pending_echo: Vec<MptcpOption>,
    /// Distinct `ADD_ADDR` advertisements first transmitted.
    addr_advertised: u64,
}

impl PathManager {
    /// A manager allowing up to `subflow_limit` concurrent subflows.
    pub(crate) fn new(subflow_limit: usize) -> Self {
        assert!(subflow_limit >= 1, "need at least one subflow");
        Self {
            subflow_limit,
            adverts: Vec::new(),
            pending_echo: Vec::new(),
            addr_advertised: 0,
        }
    }

    /// Maximum concurrent subflows this connection may run.
    pub(crate) fn subflow_limit(&self) -> usize {
        self.subflow_limit
    }

    /// Distinct `ADD_ADDR` advertisements transmitted at least once.
    pub(crate) fn addr_advertised(&self) -> u64 {
        self.addr_advertised
    }

    /// Queue an `ADD_ADDR` advertisement for `addr_id`. Supersedes any
    /// pending withdrawal of the same address.
    pub(crate) fn advertise(&mut self, addr_id: u8, backup: bool) {
        self.adverts.retain(|a| a.addr_id != addr_id);
        self.adverts.push(Advert {
            addr_id,
            kind: AdvertKind::Add { backup },
            sent_at: None,
            echoed: false,
        });
    }

    /// Queue a `REMOVE_ADDR` withdrawal for `addr_id`. Supersedes any
    /// pending advertisement of the same address.
    pub(crate) fn withdraw(&mut self, addr_id: u8) {
        self.adverts.retain(|a| a.addr_id != addr_id);
        self.adverts.push(Advert { addr_id, kind: AdvertKind::Remove, sent_at: None, echoed: false });
    }

    /// Whether any advertisement or echo still needs to go out (or be
    /// retransmitted).
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending_echo.is_empty() || self.adverts.iter().any(|a| !a.echoed)
    }

    /// Earliest time an unacknowledged advertisement becomes due again
    /// (`None` when nothing is pending; `Some(0)` when something is due
    /// immediately).
    pub(crate) fn next_deadline(&self) -> Option<Micros> {
        if !self.pending_echo.is_empty() {
            return Some(0);
        }
        self.adverts
            .iter()
            .filter(|a| !a.echoed)
            .map(|a| a.sent_at.map_or(0, |t| t + ADVERT_RTO))
            .min()
    }

    /// Options due for transmission at `now`: owed echoes plus every
    /// unacknowledged advertisement never sent or silent for
    /// [`ADVERT_RTO`]. Transmission times are stamped here, so only call
    /// when the options will actually be put on a wire.
    pub(crate) fn due_options(&mut self, now: Micros) -> Vec<MptcpOption> {
        let mut out = std::mem::take(&mut self.pending_echo);
        for a in &mut self.adverts {
            if a.echoed {
                continue;
            }
            let due = a.sent_at.is_none_or(|t| now >= t + ADVERT_RTO);
            if !due {
                continue;
            }
            if a.sent_at.is_none() {
                if let AdvertKind::Add { .. } = a.kind {
                    self.addr_advertised += 1;
                }
            }
            a.sent_at = Some(now);
            out.push(match a.kind {
                AdvertKind::Add { backup } => {
                    MptcpOption::AddAddr { addr_id: a.addr_id, backup, echo: false }
                }
                AdvertKind::Remove => MptcpOption::RemoveAddr { addr_id: a.addr_id, echo: false },
            });
        }
        out
    }

    /// Ingest one received option. Non-echo advertisements queue the owed
    /// echo and return the implied action; echoes retire the matching
    /// pending advertisement.
    pub(crate) fn on_option(&mut self, opt: &MptcpOption) -> Option<PathEvent> {
        match *opt {
            MptcpOption::AddAddr { addr_id, backup, echo: false } => {
                self.pending_echo.push(MptcpOption::AddAddr { addr_id, backup, echo: true });
                Some(PathEvent::Join { addr_id, backup })
            }
            MptcpOption::AddAddr { addr_id, echo: true, .. } => {
                self.mark_echoed(addr_id, true);
                None
            }
            MptcpOption::RemoveAddr { addr_id, echo: false } => {
                self.pending_echo.push(MptcpOption::RemoveAddr { addr_id, echo: true });
                Some(PathEvent::Close { addr_id })
            }
            MptcpOption::RemoveAddr { addr_id, echo: true } => {
                self.mark_echoed(addr_id, false);
                None
            }
            MptcpOption::MpCapable { .. }
            | MptcpOption::MpJoin { .. }
            | MptcpOption::Dss { .. } => None,
        }
    }

    fn mark_echoed(&mut self, addr_id: u8, add: bool) {
        for a in &mut self.adverts {
            let matches = a.addr_id == addr_id
                && match a.kind {
                    AdvertKind::Add { .. } => add,
                    AdvertKind::Remove => !add,
                };
            if matches {
                a.echoed = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advert_retransmits_until_echoed() {
        let mut pm = PathManager::new(4);
        pm.advertise(1, false);
        let first = pm.due_options(1_000);
        assert_eq!(first, vec![MptcpOption::AddAddr { addr_id: 1, backup: false, echo: false }]);
        assert!(pm.due_options(1_000 + ADVERT_RTO - 1).is_empty(), "not due yet");
        let again = pm.due_options(1_000 + ADVERT_RTO);
        assert_eq!(again.len(), 1, "unacknowledged advert must retransmit");
        assert_eq!(pm.addr_advertised(), 1, "retransmit is not a new advertisement");
        pm.on_option(&MptcpOption::AddAddr { addr_id: 1, backup: false, echo: true });
        assert!(pm.due_options(10 * ADVERT_RTO).is_empty(), "echo stops the retransmit");
        assert!(!pm.has_pending());
    }

    #[test]
    fn received_advert_queues_echo_and_join_event() {
        let mut pm = PathManager::new(4);
        let ev = pm.on_option(&MptcpOption::AddAddr { addr_id: 2, backup: true, echo: false });
        assert_eq!(ev, Some(PathEvent::Join { addr_id: 2, backup: true }));
        let out = pm.due_options(0);
        assert_eq!(out, vec![MptcpOption::AddAddr { addr_id: 2, backup: true, echo: true }]);
    }

    #[test]
    fn withdrawal_supersedes_advert_and_is_echoed_separately() {
        let mut pm = PathManager::new(4);
        pm.advertise(3, false);
        pm.withdraw(3);
        let out = pm.due_options(0);
        assert_eq!(out, vec![MptcpOption::RemoveAddr { addr_id: 3, echo: false }]);
        // An AddAddr echo must not retire the pending withdrawal.
        pm.on_option(&MptcpOption::AddAddr { addr_id: 3, backup: false, echo: true });
        assert!(pm.has_pending());
        pm.on_option(&MptcpOption::RemoveAddr { addr_id: 3, echo: true });
        assert!(!pm.has_pending());
        let ev = pm.on_option(&MptcpOption::RemoveAddr { addr_id: 3, echo: false });
        assert_eq!(ev, Some(PathEvent::Close { addr_id: 3 }));
    }
}
