//! **Table 2 reproduction** — simulation speed of the three engines
//! and the time to simulate 16 M and 1000 M packets.
//!
//! The paper's "Our Emulation 50 M cycles/s" row *is* the FPGA clock:
//! an emulation platform executes one platform cycle per FPGA clock by
//! construction. Our substitute reports (a) the estimated clock of the
//! synthesized platform (the FPGA-equivalent emulation speed) and (b)
//! the measured speed of this reproduction's software engines:
//! the compiled engine, the fast emulation engine, the SystemC-analog
//! TLM engine and the ModelSim-analog RTL engine — all executing
//! cycle-identical work.
//!
//! ```text
//! cargo run --release -p nocem-bench --bin table2_speed
//! ```

use nocem::compile::elaborate;
use nocem::compiled::CompiledEngine;
use nocem::config::PaperConfig;
use nocem::engine::build;
use nocem::flow::synthesize;
use nocem_area::fpga::XC2VP20;
use nocem_bench::{
    endless_paper_config, measure_speed, quick_mode, PAPER_CYCLES_PER_PACKET, PAPER_TABLE2,
};
use nocem_common::csv::CsvWriter;
use nocem_common::table::{Align, TextTable};
use nocem_common::time::{format_duration, format_speed};
use nocem_rtl::RtlEngine;
use nocem_tlm::TlmEngine;

fn main() {
    let budget = if quick_mode() { 0.3 } else { 2.0 };

    // FPGA-equivalent speed: the estimated platform clock.
    let cfg = PaperConfig::new().uniform();
    let elab = elaborate(&cfg).expect("paper config compiles");
    let clock_hz = synthesize(&elab, XC2VP20).clock_mhz() * 1e6;

    println!("measuring engine speeds ({budget:.1}s per engine)...");
    let endless = endless_paper_config();
    let elab = || elaborate(&endless).expect("paper config compiles");
    let compiled = measure_speed(&mut CompiledEngine::new(elab()), 50_000, budget)
        .expect("compiled measurement");
    let emu = measure_speed(
        &mut build(&endless).expect("paper config compiles"),
        50_000,
        budget,
    )
    .expect("emulation measurement");
    let tlm = measure_speed(&mut TlmEngine::new(elab()), 20_000, budget).expect("tlm measurement");
    let rtl = measure_speed(&mut RtlEngine::new(elab()), 10_000, budget).expect("rtl measurement");

    let rows: Vec<(&str, f64)> = vec![
        ("FPGA emulation (estimated clock)", clock_hz),
        (
            "This reproduction: compiled engine",
            compiled.cycles_per_second,
        ),
        ("This reproduction: fast engine", emu.cycles_per_second),
        (
            "This reproduction: TLM (SystemC analog)",
            tlm.cycles_per_second,
        ),
        (
            "This reproduction: RTL (ModelSim analog)",
            rtl.cycles_per_second,
        ),
    ];

    let time_for_packets = |cps: f64, packets: f64| -> String {
        format_duration(packets * PAPER_CYCLES_PER_PACKET / cps)
    };

    let mut t = TextTable::with_columns(&[
        "Simulation mode",
        "Speed (cycles/sec)",
        "Time for 16 Mpackets",
        "Time for 1000 Mpackets",
    ]);
    t.title("Table 2 — simulation speed (16 Mpackets = 160 Mcycles at 10 cyc/pkt)");
    for c in 1..4 {
        t.align(c, Align::Right);
    }
    let mut csv = CsvWriter::new(&["mode", "cycles_per_sec", "t_16m_s", "t_1000m_s"]);
    for (label, cps) in PAPER_TABLE2 {
        t.row(vec![
            format!("paper: {label}"),
            format_speed(cps),
            time_for_packets(cps, 16e6),
            time_for_packets(cps, 1000e6),
        ]);
        csv.record_display(&[
            &format!("paper:{label}"),
            &cps,
            &(16e6 * PAPER_CYCLES_PER_PACKET / cps),
            &(1000e6 * PAPER_CYCLES_PER_PACKET / cps),
        ]);
    }
    for (label, cps) in &rows {
        t.row(vec![
            (*label).to_string(),
            format_speed(*cps),
            time_for_packets(*cps, 16e6),
            time_for_packets(*cps, 1000e6),
        ]);
        csv.record_display(&[
            label,
            cps,
            &(16e6 * PAPER_CYCLES_PER_PACKET / cps),
            &(1000e6 * PAPER_CYCLES_PER_PACKET / cps),
        ]);
    }
    println!("{t}");

    println!(
        "shape check: emulation-vs-RTL factor — paper {:.0}x, this reproduction {:.0}x \
         (FPGA-equivalent vs RTL engine)",
        50e6 / 3.2e3,
        clock_hz / rtl.cycles_per_second
    );
    println!(
        "engine ordering: compiled {:.2} M, fast {:.2} M > TLM {:.2} M > RTL {:.2} M cycles/s",
        compiled.cycles_per_second / 1e6,
        emu.cycles_per_second / 1e6,
        tlm.cycles_per_second / 1e6,
        rtl.cycles_per_second / 1e6
    );
    let path = nocem_bench::save_csv("table2_speed.csv", csv.as_str());
    println!("data written to {}", path.display());
}
