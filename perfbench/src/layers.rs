//! Groups the simulator's self-profile event classes by the crate that
//! handles them.

use desim::Profile;

/// The layer whose code handles an event class. `cluster` holds the
/// observers (watchdog, sampler, measure start); `other` catches any
/// class this map does not know, so the layers still sum to the wall.
fn layer_of(class: &str) -> &'static str {
    match class {
        "node.frame_from_wire"
        | "node.rx_dma"
        | "node.moderation_delay"
        | "node.mitt"
        | "node.tx_wire" => "nic",
        "node.job_done" | "node.io_done" | "node.wake_done" | "node.poll_rx" => "kernel",
        "node.governor_tick" => "governors",
        "node.ncap_sw_timer" => "ncap",
        "deliver" | "retx_check" => "net",
        "client_burst" => "apps",
        "watchdog" | "sample" | "start_measure" => "cluster",
        c if c.starts_with("fleet_") || c.starts_with("backend_") || c.starts_with("domain_") => {
            "fleet"
        }
        _ => "other",
    }
}

/// Events and handler nanoseconds of one layer in `p`.
pub fn totals(p: &Profile, layer: &str) -> (u64, u64) {
    p.classes
        .iter()
        .filter(|c| layer_of(c.name) == layer)
        .fold((0, 0), |(n, ns), c| (n + c.count, ns + c.elapsed_ns))
}

/// Wall time the profile attributes to no handler and not to the queue.
pub fn unattributed_ns(p: &Profile) -> i128 {
    i128::from(p.wall_ns) - i128::from(p.handler_ns) - i128::from(p.queue_ns)
}
