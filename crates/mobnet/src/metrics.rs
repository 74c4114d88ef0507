//! Network and energy accounting.
//!
//! The paper's cost discussion is all about *counting*: wireless
//! transmissions (energy, point (e)), channel occupancy (point (b)),
//! piggybacked control bytes (scalability), location searches (point (d)).
//! [`NetMetrics`] is the single ledger every substrate component reports
//! into; reports in the `mck` crate surface it per run.

use crate::ids::MhId;

/// Energy-model coefficients for the wireless interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Joules (arbitrary units) per wireless transmission or reception.
    pub per_transmission: f64,
    /// Additional cost per byte crossing the wireless link.
    pub per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            per_transmission: 1.0,
            per_byte: 0.001,
        }
    }
}

/// Aggregate network/energy counters for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct NetMetrics {
    /// Application messages sent.
    pub app_msgs_sent: u64,
    /// Application messages delivered to a host.
    pub app_msgs_delivered: u64,
    /// Protocol/mobility control messages (hand-off, disconnect, markers…).
    pub control_msgs: u64,
    /// Wireless transmissions (each MH↔MSS hop, either direction).
    pub wireless_transmissions: u64,
    /// Wired MSS↔MSS hops.
    pub wired_hops: u64,
    /// Application payload bytes over wireless links.
    pub payload_bytes: u64,
    /// Piggybacked control-information bytes over wireless links.
    pub piggyback_bytes: u64,
    /// Checkpoint increment bytes over wireless links.
    pub ckpt_wireless_bytes: u64,
    /// Checkpoint base bytes fetched between stations.
    pub ckpt_fetch_bytes: u64,
    /// Number of cross-MSS checkpoint base fetches.
    pub ckpt_fetches: u64,
    /// Location-directory searches.
    pub searches: u64,
    /// Duplicate packets injected by the at-least-once transport.
    pub duplicates_injected: u64,
    /// Duplicates suppressed at receivers.
    pub duplicates_suppressed: u64,
    /// Per-host wireless transmissions (for per-MH energy).
    pub per_mh_wireless: Vec<u64>,
    /// Per-host wireless bytes.
    pub per_mh_bytes: Vec<u64>,
}

impl NetMetrics {
    /// A ledger for `n` hosts.
    pub fn new(n: usize) -> Self {
        NetMetrics {
            per_mh_wireless: vec![0; n],
            per_mh_bytes: vec![0; n],
            ..Default::default()
        }
    }

    /// Charges one wireless hop involving `mh` carrying `bytes`.
    pub fn charge_wireless(&mut self, mh: MhId, bytes: u64) {
        self.wireless_transmissions += 1;
        self.per_mh_wireless[mh.idx()] += 1;
        self.per_mh_bytes[mh.idx()] += bytes;
    }

    /// Energy proxy for one host under `model`.
    pub fn energy_of(&self, mh: MhId, model: EnergyModel) -> f64 {
        self.per_mh_wireless[mh.idx()] as f64 * model.per_transmission
            + self.per_mh_bytes[mh.idx()] as f64 * model.per_byte
    }

    /// Total energy proxy across hosts.
    pub fn total_energy(&self, model: EnergyModel) -> f64 {
        (0..self.per_mh_wireless.len())
            .map(|i| self.energy_of(MhId(i), model))
            .sum()
    }

    /// Total control-information overhead ratio: piggyback bytes per
    /// delivered application message (0 when nothing was delivered).
    pub fn piggyback_per_message(&self) -> f64 {
        if self.app_msgs_delivered == 0 {
            0.0
        } else {
            self.piggyback_bytes as f64 / self.app_msgs_delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wireless_charges_accumulate_per_host() {
        let mut m = NetMetrics::new(2);
        m.charge_wireless(MhId(0), 100);
        m.charge_wireless(MhId(0), 50);
        m.charge_wireless(MhId(1), 10);
        assert_eq!(m.wireless_transmissions, 3);
        assert_eq!(m.per_mh_wireless, vec![2, 1]);
        assert_eq!(m.per_mh_bytes, vec![150, 10]);
    }

    #[test]
    fn energy_combines_transmissions_and_bytes() {
        let mut m = NetMetrics::new(1);
        m.charge_wireless(MhId(0), 1000);
        let e = m.energy_of(
            MhId(0),
            EnergyModel {
                per_transmission: 2.0,
                per_byte: 0.01,
            },
        );
        assert!((e - 12.0).abs() < 1e-12);
        assert!((m.total_energy(EnergyModel { per_transmission: 2.0, per_byte: 0.01 }) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn piggyback_ratio() {
        let mut m = NetMetrics::new(1);
        assert_eq!(m.piggyback_per_message(), 0.0);
        m.app_msgs_delivered = 4;
        m.piggyback_bytes = 32;
        assert!((m.piggyback_per_message() - 8.0).abs() < 1e-12);
    }
}
