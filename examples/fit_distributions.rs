//! The GDS workflow: fit phase-type exponential and multi-stage gamma
//! mixtures to empirical data, test the fits, and display the densities —
//! the text-mode equivalent of the paper's interactive X11 session,
//! including the Figure 5.1/5.2 example families.
//!
//! ```sh
//! cargo run --example fit_distributions
//! ```

use rand::SeedableRng;
use uswg_core::{fit, gof, plot, presets, CdfTable, Distribution, PhaseTypeExp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Figure 5.1: phase-type exponential examples ==\n");
    for (label, dist) in presets::figure_5_1_examples()? {
        println!("{label}");
        println!("{}", plot::plot_pdf(&dist, 0.0, 100.0, 64, 10));
    }

    println!("== Figure 5.2: multi-stage gamma examples ==\n");
    for (label, dist) in presets::figure_5_2_examples()? {
        println!("{label}");
        println!("{}", plot::plot_pdf(&dist, 0.0, 100.0, 64, 10));
    }

    // Fit a two-phase mixture to data drawn from a bimodal "truth".
    println!("== Fitting a phase-type mixture to empirical data ==\n");
    let truth = PhaseTypeExp::new(vec![(0.6, 900.0, 0.0), (0.4, 1_500.0, 6_000.0)])?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1991);
    let data: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();

    let single = fit::fit_exponential(&data)?;
    let double = fit::fit_phase_type(&data, 2)?;
    let gamma = fit::fit_multi_stage_gamma(&data, 2)?;

    for (name, dist) in [
        ("single exponential", &single as &dyn Distribution),
        ("2-phase exponential", &double as &dyn Distribution),
        ("2-stage gamma", &gamma as &dyn Distribution),
    ] {
        let ks = gof::ks_statistic(&data, dist)?;
        let chi = gof::chi_square(&data, dist, 40)?;
        println!(
            "{name:<22} mean {:>8.1}  KS D = {:.4} (p = {:.3})  χ² = {:>8.1} ({} dof)",
            dist.mean(),
            ks.statistic,
            ks.p_value,
            chi.statistic,
            chi.degrees_of_freedom
        );
    }
    println!("\nfitted 2-phase density vs truth:");
    println!("{}", plot::plot_pdf(&double, 0.0, 12_000.0, 64, 10));

    // The GDS output artifact: CDF tables for the USIM.
    let table = CdfTable::from_distribution(&double, 1024)?;
    println!(
        "compiled CDF table: {} points, {} bytes (the Section 4.2 memory cost)",
        table.len(),
        table.memory_bytes()
    );
    Ok(())
}
