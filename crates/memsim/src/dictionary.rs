//! Fault dictionaries: pre-computed syndrome databases for march-test based
//! diagnosis.
//!
//! A fault dictionary maps every fault instance of a fault list (fault × cell
//! assignment) to the failure [`Syndrome`] it produces under a given march test.
//! Dictionaries make repeated diagnosis queries cheap (one set lookup instead of a
//! full simulation sweep) and expose the *diagnostic resolution* of a march test —
//! how many fault instances share the same syndrome and are therefore
//! indistinguishable by that test.

use std::fmt;

use march_test::MarchTest;
use sram_fault_model::FaultList;

use crate::{
    enumerate_decoder_placements, enumerate_placements, CoverageConfig, DecoderFaultInstance,
    FaultSimulator, InitialState, InjectedFault, InstanceCells, LinkTopologyExt,
    LinkedFaultInstance, PlacementStrategy, Syndrome, TargetKind,
};

/// One entry of a fault dictionary: a fault instance and the syndrome it produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictionaryEntry {
    /// The fault (simple primitive or linked fault).
    pub target: TargetKind,
    /// The cell assignment of the instance.
    pub cells: InstanceCells,
    /// The syndrome observed when simulating the instance under the dictionary's
    /// march test; empty for undetected instances.
    pub syndrome: Syndrome,
}

impl fmt::Display for DictionaryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {} -> {}", self.target, self.cells, self.syndrome)
    }
}

/// A pre-computed fault dictionary for one march test, one fault list and one data
/// background.
///
/// Lookups go through an index that allocates nothing per entry: one
/// `(syndrome hash, entry position)` pair per entry, sorted, so the entries
/// sharing a 64-bit syndrome hash form one run in entry order. The hash only
/// narrows the search: [`lookup`](FaultDictionary::lookup),
/// [`distinct_syndromes`](FaultDictionary::distinct_syndromes) and
/// [`resolution`](FaultDictionary::resolution) compare full syndromes within
/// a run, so a hash collision can never merge two syndromes.
///
/// # Examples
///
/// ```
/// use march_test::catalog;
/// use sram_fault_model::{FaultListBuilder, Ffm};
/// use sram_sim::{CoverageConfig, FaultDictionary};
///
/// let list = FaultListBuilder::new("transition faults")
///     .family(Ffm::TransitionFault)
///     .build()?;
/// let dictionary = FaultDictionary::build(
///     &catalog::march_ss(),
///     &list,
///     &CoverageConfig { memory_cells: 6, ..CoverageConfig::default() },
/// );
/// assert_eq!(dictionary.len(), 2 * 6);          // 2 primitives × 6 cells
/// assert_eq!(dictionary.undetected().count(), 0);
/// # Ok::<(), sram_fault_model::FaultModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    test_name: String,
    entries: Vec<DictionaryEntry>,
    /// `(syndrome hash, entry position)` per entry, sorted.
    index: Vec<(u64, usize)>,
}

impl FaultDictionary {
    /// Builds the dictionary by simulating every fault instance of `list` under
    /// `test`.
    ///
    /// Placements are enumerated exhaustively (diagnosis needs localisation); the
    /// background is the first one of `config` (default: all ones).
    #[must_use]
    pub fn build(test: &MarchTest, list: &FaultList, config: &CoverageConfig) -> FaultDictionary {
        let background = config
            .backgrounds
            .first()
            .cloned()
            .unwrap_or(InitialState::AllOne);
        let mut entries = Vec::new();

        for primitive in list.simple() {
            let topology = primitive.diagnosis_topology();
            for cells in
                enumerate_placements(topology, config.memory_cells, PlacementStrategy::Exhaustive)
                    .expect("dictionary memory hosts the placements")
            {
                let mut simulator = FaultSimulator::new(config.memory_cells, &background)
                    .expect("dictionary memory configuration is valid");
                let injected = if primitive.is_coupling() {
                    InjectedFault::coupling(
                        primitive.clone(),
                        cells.aggressor_first.expect("pair placement"),
                        cells.victim,
                        config.memory_cells,
                    )
                } else {
                    InjectedFault::single_cell(primitive.clone(), cells.victim, config.memory_cells)
                }
                .expect("enumerated placements are valid");
                simulator.inject(injected);
                entries.push(DictionaryEntry {
                    target: TargetKind::Simple(primitive.clone()),
                    cells,
                    syndrome: Syndrome::observe(test, &mut simulator),
                });
            }
        }

        for fault in list.linked() {
            for cells in enumerate_placements(
                fault.topology(),
                config.memory_cells,
                PlacementStrategy::Exhaustive,
            )
            .expect("dictionary memory hosts the placements")
            {
                let mut simulator = FaultSimulator::new(config.memory_cells, &background)
                    .expect("dictionary memory configuration is valid");
                let instance = LinkedFaultInstance::new(fault.clone(), cells, config.memory_cells)
                    .expect("enumerated placements are valid");
                simulator.inject_linked(&instance);
                entries.push(DictionaryEntry {
                    target: TargetKind::Linked(fault.clone()),
                    cells,
                    syndrome: Syndrome::observe(test, &mut simulator),
                });
            }
        }

        for fault in list.decoders() {
            for cells in enumerate_decoder_placements(
                *fault,
                config.memory_cells,
                PlacementStrategy::Exhaustive,
            )
            .expect("dictionary memory hosts the placements")
            {
                let mut simulator = FaultSimulator::new(config.memory_cells, &background)
                    .expect("dictionary memory configuration is valid");
                let instance = DecoderFaultInstance::new(*fault, cells, config.memory_cells)
                    .expect("enumerated placements are valid");
                simulator.inject_decoder(instance);
                entries.push(DictionaryEntry {
                    target: TargetKind::Decoder(*fault),
                    cells,
                    syndrome: Syndrome::observe(test, &mut simulator),
                });
            }
        }

        FaultDictionary::from_parts(test.name().to_string(), entries)
    }

    /// Indexes `entries` into a dictionary — the one constructor behind
    /// [`FaultDictionary::build`] and the snapshot loader, so a round-tripped
    /// dictionary answers every lookup identically to a freshly built one.
    pub(crate) fn from_parts(test_name: String, entries: Vec<DictionaryEntry>) -> FaultDictionary {
        let mut index: Vec<(u64, usize)> = entries
            .iter()
            .enumerate()
            .map(|(position, entry)| (syndrome_hash(&entry.syndrome), position))
            .collect();
        // Stable, on the hash alone: positions stay ascending within a run.
        index.sort_by_key(|&(hash, _)| hash);
        FaultDictionary {
            test_name,
            entries,
            index,
        }
    }

    /// Every distinct syndrome with the number of entries that produce it.
    /// A hash run whose syndromes are not all equal (a hash collision) is
    /// sorted by syndrome and split on full equality, so the count is exact
    /// and stays O(n log n) even for crafted collisions.
    fn syndrome_counts(&self) -> Vec<(&Syndrome, usize)> {
        let mut counts = Vec::new();
        for run in self.index.chunk_by(|a, b| a.0 == b.0) {
            let mut syndromes: Vec<&Syndrome> = run
                .iter()
                .map(|&(_, position)| &self.entries[position].syndrome)
                .collect();
            if syndromes.iter().any(|syndrome| *syndrome != syndromes[0]) {
                syndromes.sort_unstable_by(|a, b| a.entries().cmp(b.entries()));
            }
            counts.extend(
                syndromes
                    .chunk_by(|a, b| a == b)
                    .map(|group| (group[0], group.len())),
            );
        }
        counts
    }

    /// The march test the dictionary was built for.
    #[must_use]
    pub fn test_name(&self) -> &str {
        &self.test_name
    }

    /// Every entry of the dictionary.
    #[must_use]
    pub fn entries(&self) -> &[DictionaryEntry] {
        &self.entries
    }

    /// Number of fault instances in the dictionary.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` for an empty dictionary (empty fault list).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up every fault instance whose syndrome equals `syndrome`.
    #[must_use]
    pub fn lookup(&self, syndrome: &Syndrome) -> Vec<&DictionaryEntry> {
        let hash = syndrome_hash(syndrome);
        let start = self
            .index
            .partition_point(|&(entry_hash, _)| entry_hash < hash);
        self.index[start..]
            .iter()
            .take_while(|&&(entry_hash, _)| entry_hash == hash)
            .map(|&(_, position)| &self.entries[position])
            .filter(|entry| entry.syndrome == *syndrome)
            .collect()
    }

    /// The fault instances the march test does not detect at all (empty syndrome).
    pub fn undetected(&self) -> impl Iterator<Item = &DictionaryEntry> {
        self.entries
            .iter()
            .filter(|entry| entry.syndrome.is_empty())
    }

    /// Number of distinct non-empty syndromes.
    #[must_use]
    pub fn distinct_syndromes(&self) -> usize {
        self.syndrome_counts()
            .iter()
            .filter(|(syndrome, _)| !syndrome.is_empty())
            .count()
    }

    /// Diagnostic resolution: the fraction of *detected* fault instances whose
    /// syndrome is unique (i.e. the test pinpoints them exactly). `1.0` for an
    /// ideal diagnostic test, `0.0` when every syndrome is ambiguous.
    #[must_use]
    pub fn resolution(&self) -> f64 {
        let (mut total, mut unique) = (0usize, 0usize);
        for (syndrome, count) in self.syndrome_counts() {
            if !syndrome.is_empty() {
                total += count;
                unique += usize::from(count == 1);
            }
        }
        if total == 0 {
            return 0.0;
        }
        unique as f64 / total as f64
    }
}

/// A 64-bit hash of a syndrome's entries. Each entry's fields are spread by
/// independent multiplies, so the chain carries one dependent multiply per
/// entry. Only the dictionary index uses it, within one process: it needs to
/// spread well, not to be stable across builds.
fn syndrome_hash(syndrome: &Syndrome) -> u64 {
    syndrome
        .entries()
        .fold(syndrome.len() as u64, |hash, entry| {
            let word = (entry.element as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (entry.cell as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ (entry.operation as u64).wrapping_mul(0x1656_67B1_9E37_79F9)
                ^ u64::from(entry.observed.as_u8());
            (hash ^ word)
                .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
                .rotate_left(29)
        })
}

impl fmt::Display for FaultDictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault dictionary for {}: {} instances, {} distinct syndromes, resolution {:.2}",
            self.test_name,
            self.len(),
            self.distinct_syndromes(),
            self.resolution()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use march_test::catalog;
    use sram_fault_model::{FaultListBuilder, Ffm};

    fn small_config() -> CoverageConfig {
        CoverageConfig {
            memory_cells: 6,
            ..CoverageConfig::default()
        }
    }

    #[test]
    fn dictionary_over_single_cell_faults() {
        let list = FaultListBuilder::new("single-cell")
            .family(Ffm::TransitionFault)
            .family(Ffm::WriteDestructiveFault)
            .build()
            .unwrap();
        let dictionary = FaultDictionary::build(&catalog::march_ss(), &list, &small_config());
        assert_eq!(dictionary.len(), 4 * 6);
        assert_eq!(dictionary.undetected().count(), 0);
        assert!(dictionary.distinct_syndromes() > 0);
        assert!(dictionary.resolution() > 0.0);
        assert!(!dictionary.to_string().is_empty());
        assert!(!dictionary.is_empty());
    }

    #[test]
    fn lookup_recovers_the_injected_instance() {
        let list = FaultListBuilder::new("tf")
            .family(Ffm::TransitionFault)
            .build()
            .unwrap();
        let dictionary = FaultDictionary::build(&catalog::march_ss(), &list, &small_config());

        // Simulate an "unknown" device with TF↑ on cell 4 and look its syndrome up.
        let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
        let mut device = FaultSimulator::new(6, &InitialState::AllOne).unwrap();
        device.inject(InjectedFault::single_cell(tf.clone(), 4, 6).unwrap());
        let syndrome = Syndrome::observe(&catalog::march_ss(), &mut device);

        let matches = dictionary.lookup(&syndrome);
        assert!(!matches.is_empty());
        assert!(matches.iter().all(|entry| entry.cells.victim == 4));
        assert!(matches.iter().any(|entry| match &entry.target {
            TargetKind::Simple(fp) => fp == &tf,
            _ => false,
        }));

        // A passing syndrome matches only undetected entries (of which there are
        // none for March SS over transition faults).
        assert!(dictionary.lookup(&Syndrome::new()).is_empty());
    }

    #[test]
    fn weak_tests_have_undetected_entries_and_lower_resolution() {
        let list = FaultListBuilder::new("wdf")
            .family(Ffm::WriteDestructiveFault)
            .build()
            .unwrap();
        let weak = FaultDictionary::build(&catalog::mats_plus(), &list, &small_config());
        let strong = FaultDictionary::build(&catalog::march_ss(), &list, &small_config());
        assert!(weak.undetected().count() > 0);
        assert_eq!(strong.undetected().count(), 0);
        assert!(weak.distinct_syndromes() <= strong.distinct_syndromes());
    }

    #[test]
    fn hash_collisions_never_merge_syndromes() {
        let list = FaultList::list_2();
        let dictionary = FaultDictionary::build(&catalog::march_ss(), &list, &small_config());
        let probe = &dictionary.entries()[0].syndrome;
        let mut collided = dictionary.clone();
        // Every entry under the probe's hash: one run holding every syndrome.
        for slot in &mut collided.index {
            slot.0 = syndrome_hash(probe);
        }
        collided.index.sort_unstable();
        assert!(dictionary.distinct_syndromes() > 1);
        assert_eq!(
            collided.distinct_syndromes(),
            dictionary.distinct_syndromes()
        );
        assert_eq!(collided.resolution(), dictionary.resolution());
        assert_eq!(collided.to_string(), dictionary.to_string());
        assert_eq!(collided.lookup(probe), dictionary.lookup(probe));
        assert!(collided.lookup(probe).len() < collided.len());
    }

    #[test]
    fn linked_fault_dictionary_counts_placements() {
        let list = FaultList::list_2();
        let dictionary = FaultDictionary::build(&catalog::march_abl1(), &list, &small_config());
        // 32 LF1 faults × 6 victim cells.
        assert_eq!(dictionary.len(), 32 * 6);
        assert_eq!(dictionary.undetected().count(), 0);
    }
}
