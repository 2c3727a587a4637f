//! Simulated synchronization: bounded byte channels.
//!
//! A [`SimChannel`] models a kernel socket buffer / listen queue: a bounded
//! byte store carrying message records. Producers block when it is full,
//! consumers when it is empty — which is all the synchronization netperf's
//! producer/consumer pair and the XML server's accept loop need.
//!
//! A channel can leak bytes at a fixed rate (bytes per 1024 cycles),
//! modelling a NIC transmit queue emptying onto a gigabit link. Senders
//! blocked on a draining channel get *timed* wakeups computed from the
//! drain rate.
//!
//! A channel carries message sizes and tags, not addresses. Where a
//! message's bytes
//! live is bound by the workloads that copy them: each keeps its own ring
//! cursor and places a buffer with [`ring_offset`], so a producer and a
//! consumer that advance their cursors in step bind the same lines, as
//! the two ends of a real shared socket buffer do (netperf's sender and
//! receiver, the XML server's RX and TX rings).

/// Offset of a `bytes`-long buffer at byte `cursor` of a ring `window`
/// bytes long. A buffer that would straddle the end wraps to offset 0
/// instead; a window smaller than one buffer grows to hold it.
pub fn ring_offset(window: u64, cursor: u64, bytes: u32) -> u64 {
    let window = window.max(u64::from(bytes));
    let off = cursor % window;
    if off + u64::from(bytes) > window {
        0
    } else {
        off
    }
}

/// Identifies a channel within a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(pub u32);

/// One queued message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// Payload size in bytes.
    pub bytes: u32,
    /// Opaque tag (the workloads use it to identify message variants).
    pub tag: u64,
}

/// An external arrival source attached to a channel: messages of a fixed
/// size arriving at a fixed byte rate (an open-loop client population
/// pushing traffic through the ingress link).
#[derive(Debug, Clone, Copy)]
pub struct FillConfig {
    /// Size of each arriving message.
    pub msg_bytes: u32,
    /// Arrival rate in bytes per 1024 cycles (cap it at the ingress link
    /// rate).
    pub bytes_per_kcycle: u32,
}

/// Channel construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChannelConfig {
    /// Capacity in bytes (like a socket buffer size).
    pub capacity: u32,
    /// Bytes drained per 1024 cycles by an external sink (0 = none).
    pub drain_per_kcycle: u32,
    /// Optional external arrival source. Arriving messages carry their
    /// arrival index as `tag`.
    pub fill: Option<FillConfig>,
}

impl ChannelConfig {
    /// A plain bounded channel with no drain and no source.
    pub fn bounded(capacity: u32) -> Self {
        ChannelConfig { capacity, drain_per_kcycle: 0, fill: None }
    }
}

/// A bounded byte channel.
#[derive(Debug)]
pub struct SimChannel {
    cfg: ChannelConfig,
    occupied: u64,
    msgs: std::collections::VecDeque<Msg>,
    last_drain: u64,
    /// Fractional drain accumulator (bytes × 1024).
    drain_acc: u64,
    last_fill: u64,
    /// Fractional fill accumulator (bytes × 1024).
    fill_acc: u64,
    /// Arrival index of the next filled message.
    fill_index: u64,
    /// Arrivals dropped because the channel was full (ingress overrun).
    pub dropped_msgs: u64,
    /// Totals for reporting.
    pub total_bytes_in: u64,
    /// Total bytes consumed (recv + drain).
    pub total_bytes_out: u64,
    /// Total messages sent.
    pub total_msgs: u64,
}

impl SimChannel {
    /// Create from a config.
    pub fn new(cfg: ChannelConfig) -> Self {
        SimChannel {
            cfg,
            occupied: 0,
            msgs: std::collections::VecDeque::new(),
            last_drain: 0,
            drain_acc: 0,
            last_fill: 0,
            fill_acc: 0,
            fill_index: 0,
            dropped_msgs: 0,
            total_bytes_in: 0,
            total_bytes_out: 0,
            total_msgs: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.cfg.capacity
    }

    /// Occupied bytes (after applying drain up to `now`).
    pub fn occupied(&mut self, now: u64) -> u64 {
        self.apply_drain(now);
        self.occupied
    }

    /// Apply external drain up to `now`.
    fn apply_drain(&mut self, now: u64) {
        if self.cfg.drain_per_kcycle == 0 || now <= self.last_drain {
            return;
        }
        let elapsed = now - self.last_drain;
        self.last_drain = now;
        self.drain_acc += elapsed * self.cfg.drain_per_kcycle as u64;
        // Drain whole queued messages first, then raw bytes. Credit for a
        // partially-drained message is *kept* (the wire is mid-frame), so
        // large messages still leave at exactly the configured rate.
        loop {
            let drainable = self.drain_acc / 1024;
            if drainable == 0 || self.occupied == 0 {
                break;
            }
            match self.msgs.front() {
                Some(m) if (m.bytes as u64) <= drainable => {
                    let bytes = m.bytes as u64;
                    self.drain_acc -= bytes * 1024;
                    self.occupied -= bytes;
                    self.total_bytes_out += bytes;
                    self.msgs.pop_front();
                }
                Some(_) => break,
                None => {
                    let take = drainable.min(self.occupied);
                    self.drain_acc -= take * 1024;
                    self.occupied -= take;
                    self.total_bytes_out += take;
                    break;
                }
            }
        }
        // An empty queue means an idle wire: credit does not accrue ahead
        // of data.
        if self.occupied == 0 {
            self.drain_acc = 0;
        }
    }

    /// Apply external arrivals up to `now`.
    fn apply_fill(&mut self, now: u64) {
        let Some(fill) = self.cfg.fill else { return };
        if now <= self.last_fill {
            return;
        }
        let elapsed = now - self.last_fill;
        self.last_fill = now;
        self.fill_acc += elapsed * fill.bytes_per_kcycle as u64;
        while self.fill_acc / 1024 >= fill.msg_bytes as u64 {
            self.fill_acc -= fill.msg_bytes as u64 * 1024;
            if self.occupied + fill.msg_bytes as u64 > self.cfg.capacity as u64 {
                // Ingress overrun: the listen queue is full; drop (TCP would
                // back-pressure, but an open-loop saturation source keeps
                // pushing — either way the queue stays full).
                self.dropped_msgs += 1;
                continue;
            }
            let msg = Msg { bytes: fill.msg_bytes, tag: self.fill_index };
            self.fill_index += 1;
            self.occupied += msg.bytes as u64;
            self.total_bytes_in += msg.bytes as u64;
            self.total_msgs += 1;
            self.msgs.push_back(msg);
        }
    }

    /// Try to enqueue a message at `now`. Returns `true` on success.
    pub fn try_send(&mut self, msg: Msg, now: u64) -> bool {
        self.apply_fill(now);
        self.apply_drain(now);
        if self.occupied + msg.bytes as u64 > self.cfg.capacity as u64 {
            return false;
        }
        self.occupied += msg.bytes as u64;
        self.total_bytes_in += msg.bytes as u64;
        self.total_msgs += 1;
        self.msgs.push_back(msg);
        true
    }

    /// When will the next external arrival be available, given the fill
    /// rate? `None` if the channel has no source.
    pub fn fill_eta(&mut self, now: u64) -> Option<u64> {
        let fill = self.cfg.fill?;
        self.apply_fill(now);
        if !self.msgs.is_empty() {
            return Some(now);
        }
        let need = fill.msg_bytes as u64 * 1024 - self.fill_acc;
        Some(now + need / fill.bytes_per_kcycle as u64 + 1)
    }

    /// Try to dequeue a message at `now`.
    pub fn try_recv(&mut self, now: u64) -> Option<Msg> {
        self.apply_fill(now);
        self.apply_drain(now);
        let m = self.msgs.pop_front()?;
        self.occupied -= m.bytes as u64;
        self.total_bytes_out += m.bytes as u64;
        Some(m)
    }

    /// When (absolutely) will there be room for `bytes` more, given only
    /// external drain? `None` if the channel does not drain (a peer must
    /// make room).
    ///
    /// Exact under message-granular draining: walks the queue to find how
    /// many whole messages must leave, and credits the drain accumulator
    /// already earned — so a sender woken at the ETA finds space on the
    /// first retry.
    pub fn drain_eta(&mut self, bytes: u32, now: u64) -> Option<u64> {
        if self.cfg.drain_per_kcycle == 0 {
            return None;
        }
        self.apply_drain(now);
        let free = self.cfg.capacity as u64 - self.occupied.min(self.cfg.capacity as u64);
        if free >= bytes as u64 {
            return Some(now);
        }
        // Whole messages that must drain before `bytes` fit.
        let mut acc_free = free;
        let mut must_drain = 0u64;
        for m in &self.msgs {
            must_drain += m.bytes as u64;
            acc_free += m.bytes as u64;
            if acc_free >= bytes as u64 {
                break;
            }
        }
        if acc_free < bytes as u64 {
            // Raw bytes beyond queued messages (shouldn't happen in
            // practice, but stay safe).
            must_drain += bytes as u64 - acc_free;
        }
        let deficit = (must_drain * 1024).saturating_sub(self.drain_acc);
        let cycles = deficit.div_ceil(self.cfg.drain_per_kcycle as u64) + 1;
        Some(now + cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(capacity: u32, drain: u32) -> SimChannel {
        SimChannel::new(ChannelConfig { capacity, drain_per_kcycle: drain, fill: None })
    }

    #[test]
    fn bounded_send_recv() {
        let mut c = chan(100, 0);
        assert!(c.try_send(Msg { bytes: 60, tag: 1 }, 0));
        assert!(!c.try_send(Msg { bytes: 60, tag: 2 }, 0), "over capacity");
        let m = c.try_recv(0).unwrap();
        assert_eq!(m.tag, 1);
        assert!(c.try_send(Msg { bytes: 60, tag: 2 }, 0));
        assert_eq!(c.occupied(0), 60);
    }

    #[test]
    fn fifo_order() {
        let mut c = chan(1000, 0);
        for tag in 0..5 {
            assert!(c.try_send(Msg { bytes: 10, tag }, 0));
        }
        for tag in 0..5 {
            assert_eq!(c.try_recv(0).unwrap().tag, tag);
        }
        assert!(c.try_recv(0).is_none());
    }

    #[test]
    fn drain_frees_space_over_time() {
        // 1024 bytes/kcycle = 1 byte/cycle.
        let mut c = chan(100, 1024);
        assert!(c.try_send(Msg { bytes: 100, tag: 0 }, 0));
        assert!(
            !c.try_send(Msg { bytes: 50, tag: 1 }, 10),
            "only 10 bytes drained... message-granular"
        );
        // After enough time the whole first message has drained.
        assert_eq!(c.occupied(200), 0);
        assert!(c.try_send(Msg { bytes: 50, tag: 1 }, 200));
    }

    #[test]
    fn drain_eta_estimates() {
        let mut c = chan(100, 1024);
        c.try_send(Msg { bytes: 100, tag: 0 }, 0);
        let eta = c.drain_eta(100, 0).unwrap();
        assert!((100..=110).contains(&eta), "need full message drained: {eta}");
        // Without drain, no ETA.
        let mut c2 = chan(100, 0);
        c2.try_send(Msg { bytes: 100, tag: 0 }, 0);
        assert_eq!(c2.drain_eta(1, 0), None);
    }

    #[test]
    fn ring_addresses_stay_in_window() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..20 {
            let off = ring_offset(256, i * 64, 64);
            assert!(off + 64 <= 256);
            seen.insert(off);
        }
        assert_eq!(seen.len(), 4, "cursor must advance through the ring");
        // A buffer that would straddle the end wraps to the start.
        assert_eq!(ring_offset(256, 224, 64), 0);
        // A window smaller than one buffer grows to hold it.
        assert_eq!(ring_offset(16, 64, 64), 0);
    }

    #[test]
    fn totals_account_everything() {
        let mut c = chan(1000, 0);
        c.try_send(Msg { bytes: 300, tag: 0 }, 0);
        c.try_send(Msg { bytes: 200, tag: 1 }, 0);
        c.try_recv(0);
        assert_eq!(c.total_bytes_in, 500);
        assert_eq!(c.total_bytes_out, 300);
        assert_eq!(c.total_msgs, 2);
    }
}
