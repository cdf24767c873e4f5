//! The backend's address map: the one decoder of an address into its
//! partition, L2-slice address and DRAM channel, bank and row.

use crate::system::SystemConfig;

/// Where a DRAM access lands in its partition's channel group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramLoc {
    /// Channel within the group.
    pub channel: u32,
    /// Bank within the channel.
    pub bank: u32,
    /// Row within the bank.
    pub row: u64,
}

/// The address map of the backend a [`SystemConfig`] builds (DESIGN.md tabulates it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddrMap {
    partitions: u32,
    group_channels: u32,
    banks: u32,
    row_bytes: u64,
}

impl AddrMap {
    /// Partition interleave: consecutive 128 B lines rotate over partitions.
    pub const PARTITION_BYTES: u64 = 128;
    /// Channel interleave within a group (GPGPU-Sim style).
    const CHANNEL_BYTES: u64 = 256;

    /// The map of `config`'s backend. Panics unless the DRAM channels split
    /// evenly over the partitions, which `validate_config` rejects first.
    pub fn new(config: &SystemConfig) -> Self {
        let (n, channels) = (config.num_partitions, config.dram.channels);
        assert!(
            channels > 0 && channels.is_multiple_of(n),
            "degenerate channel groups: {channels} over {n} partitions"
        );
        AddrMap {
            partitions: n,
            group_channels: channels / n,
            banks: config.dram.banks_per_channel,
            row_bytes: config.dram.row_bytes,
        }
    }

    /// DRAM channels in each partition's group.
    pub fn group_channels(&self) -> u32 {
        self.group_channels
    }

    /// The partition that owns `addr`.
    pub fn partition(&self, addr: u64) -> u32 {
        ((addr / Self::PARTITION_BYTES) % self.partitions as u64) as u32
    }

    /// The address `addr`'s L2 slice indexes: still the global one (DESIGN.md).
    pub fn slice_addr(&self, addr: u64) -> u64 {
        addr
    }

    /// Where `addr` lands in its partition's channel group.
    pub fn dram(&self, addr: u64) -> DramLoc {
        let row = addr / self.row_bytes;
        DramLoc {
            channel: ((addr / Self::CHANNEL_BYTES) % self.group_channels as u64) as u32,
            bank: (row % self.banks as u64) as u32,
            row,
        }
    }

    /// The machine-wide id of channel `channel` of `partition`'s group.
    pub fn global_channel(&self, partition: u32, channel: u32) -> u32 {
        partition * self.group_channels + channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;

    fn map(partitions: u32, channels: u32) -> AddrMap {
        AddrMap::new(&SystemConfig {
            num_partitions: partitions,
            dram: DramConfig {
                channels,
                ..DramConfig::default()
            },
            ..SystemConfig::default()
        })
    }

    #[test]
    fn partition_is_total_and_rotates_lines() {
        const LINE: u64 = AddrMap::PARTITION_BYTES;
        for n in 1..=8u32 {
            let map = map(n, n);
            for line in 0..32u64 {
                let p = map.partition(line * LINE);
                assert!(p < n);
                assert_eq!(p, (line % n as u64) as u32, "consecutive lines rotate");
                // Every byte of the line maps to the same partition.
                assert_eq!(p, map.partition(line * LINE + LINE - 1));
            }
        }
    }

    #[test]
    fn dram_decode_interleaves_channels_and_rows_over_banks() {
        let map = map(1, 6);
        let row_bytes = DramConfig::default().row_bytes;
        let first = DramLoc {
            channel: 0,
            bank: 0,
            row: 0,
        };
        assert_eq!(map.dram(0), first);
        assert_eq!(map.dram(255), first, "a 256 B block stays in one channel");
        assert_eq!(map.dram(256).channel, 1);
        assert_eq!(map.dram(6 * 256).channel, 0, "channels wrap");
        let far = map.dram(17 * row_bytes);
        assert_eq!((far.row, far.bank), (17, 1), "16 banks per channel");
    }

    #[test]
    fn global_channels_number_groups_in_partition_order() {
        let map = map(4, 8);
        assert_eq!(map.group_channels(), 2);
        let ids: Vec<u32> = (0..4)
            .flat_map(|p| (0..2).map(move |ch| map.global_channel(p, ch)))
            .collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "degenerate channel groups")]
    fn uneven_channel_groups_panic() {
        let _ = map(4, 6);
    }
}
