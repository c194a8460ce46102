//! The virtual machine model: what one rank, worker, master and link
//! cost in seconds.

/// Cost model of the simulated cluster.
///
/// Defaults are calibrated to the paper's platform class (Tianhe-II:
/// 12-core Xeon E5-2692v2 per MPI process, TH-Express-II interconnect)
/// and to the granularity of Sn sweep kernels: a diamond-difference
/// cell-angle update is a few hundred FLOPs (~0.2 µs), an MPI fine-grain
/// message costs a couple of microseconds of latency, and the master
/// thread spends a fraction of a microsecond routing each stream.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Number of MPI ranks (processes).
    pub ranks: usize,
    /// Worker threads per rank; the master gets its own reserved core,
    /// so one rank occupies `workers_per_rank + 1` cores.
    pub workers_per_rank: usize,
    /// Seconds of kernel work per (cell, angle) vertex.
    pub t_vertex: f64,
    /// Seconds of DAG bookkeeping per vertex (counter updates).
    pub t_graph: f64,
    /// Fixed scheduling overhead per compute call (queue pop, program
    /// switch).
    pub t_sched: f64,
    /// Master overhead per stream handled (route-table lookup,
    /// activation).
    pub t_route: f64,
    /// Master pack/unpack cost per byte.
    pub t_pack_per_byte: f64,
    /// Network latency per message (seconds).
    pub latency: f64,
    /// Network bandwidth (bytes/second).
    pub bandwidth: f64,
    /// Payload bytes per stream item (one face datum; 8 bytes per group
    /// value plus addressing).
    pub bytes_per_item: f64,
    /// Fixed header bytes per stream message.
    pub header_bytes: f64,
}

impl MachineModel {
    /// Tianhe-II-class defaults for the given process/thread layout.
    pub fn cluster(ranks: usize, workers_per_rank: usize) -> MachineModel {
        assert!(ranks > 0 && workers_per_rank > 0);
        MachineModel {
            ranks,
            workers_per_rank,
            t_vertex: 2.0e-7,
            t_graph: 2.0e-8,
            t_sched: 1.0e-6,
            t_route: 3.0e-7,
            t_pack_per_byte: 2.0e-10,
            latency: 2.0e-6,
            bandwidth: 5.0e9,
            bytes_per_item: 16.0,
            header_bytes: 64.0,
        }
    }

    /// Layout matching the paper's deployment on `cores` cores: one MPI
    /// process per 12-core processor, one core reserved for the master,
    /// 11 workers.
    pub fn tianhe2(cores: usize) -> MachineModel {
        assert!(
            cores >= 12 && cores.is_multiple_of(12),
            "Tianhe-II allocates whole 12-core processors"
        );
        MachineModel::cluster(cores / 12, 11)
    }

    /// Total cores this model occupies.
    pub fn cores(&self) -> usize {
        self.ranks * (self.workers_per_rank + 1)
    }

    /// Bytes of a stream message with `items` face data items.
    pub fn message_bytes(&self, items: usize) -> f64 {
        self.header_bytes + items as f64 * self.bytes_per_item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_counts_master() {
        let m = MachineModel::cluster(4, 11);
        assert_eq!(m.cores(), 48);
    }

    #[test]
    fn tianhe_layout() {
        let m = MachineModel::tianhe2(768);
        assert_eq!(m.ranks, 64);
        assert_eq!(m.workers_per_rank, 11);
        assert_eq!(m.cores(), 768);
    }

    #[test]
    #[should_panic(expected = "12-core")]
    fn tianhe_rejects_partial_processors() {
        MachineModel::tianhe2(100);
    }

    #[test]
    fn message_bytes_scale_with_items() {
        let m = MachineModel::cluster(1, 1);
        assert_eq!(m.message_bytes(0), m.header_bytes);
        assert!(m.message_bytes(10) > m.message_bytes(1));
    }
}
