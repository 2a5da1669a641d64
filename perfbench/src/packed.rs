//! The packed backend's chunk loop rebuilt from its public parts
//! (`PackedSimulator::new`, `repack`, `run_test`), so the traced run can time
//! packing and sensitization passes separately.

use march_test::MarchTest;
use sram_sim::{CoverageLane, LaneWidth, LaneWord, PackedSimulator, TargetKind, W128, W256};

use crate::trace::Tracer;

/// Per-lane detection verdicts of `test` on `lanes` of `target`, chunked
/// into words of the width the packed backend's `Auto` setting picks for this
/// lane count. With `first_escape_only`, stops after the first chunk with an
/// undetected lane, as the backend's `first_undetected` does.
pub fn verdicts(
    tracer: &Tracer,
    test: &MarchTest,
    target: &TargetKind,
    lanes: &[CoverageLane],
    memory_cells: usize,
    first_escape_only: bool,
) -> Vec<bool> {
    match LaneWidth::Auto.resolve(lanes.len()) {
        LaneWidth::W128 => {
            chunked::<W128>(tracer, test, target, lanes, memory_cells, first_escape_only)
        }
        LaneWidth::W256 => {
            chunked::<W256>(tracer, test, target, lanes, memory_cells, first_escape_only)
        }
        _ => chunked::<u64>(tracer, test, target, lanes, memory_cells, first_escape_only),
    }
}

fn chunked<W: LaneWord>(
    tracer: &Tracer,
    test: &MarchTest,
    target: &TargetKind,
    lanes: &[CoverageLane],
    memory_cells: usize,
    first_escape_only: bool,
) -> Vec<bool> {
    let mut verdicts = Vec::with_capacity(lanes.len());
    let mut scratch: Option<PackedSimulator<W>> = None;
    for chunk in lanes.chunks(W::BITS) {
        let simulator = {
            let _pack = tracer.span("pack");
            match &mut scratch {
                None => scratch.insert(
                    PackedSimulator::new(target, chunk, memory_cells)
                        .expect("enumerated placements are valid"),
                ),
                Some(simulator) => {
                    simulator
                        .repack(target, chunk)
                        .expect("enumerated placements are valid");
                    simulator
                }
            }
        };
        tracer.add("pack.calls", 1.0);
        // The faulty and golden memory planes, one word per cell each.
        tracer.add(
            "pack.plane_bytes",
            (2 * memory_cells * std::mem::size_of::<W>()) as f64,
        );
        let detected = {
            let _passes = tracer.span("passes");
            simulator.run_test(test)
        };
        tracer.add("passes.waves", 1.0);
        tracer.add("passes.live_lanes", chunk.len() as f64);
        tracer.add("passes.slots", W::BITS as f64);
        tracer.add("passes.cell_ops", (test.complexity() * memory_cells) as f64);
        let mut escaped = false;
        for lane in 0..chunk.len() {
            let hit = detected.test_bit(lane);
            escaped |= !hit;
            verdicts.push(hit);
        }
        if first_escape_only && escaped {
            break;
        }
    }
    verdicts
}
