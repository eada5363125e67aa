//! The `pipeline` workload: the paper's own job. Train an InceptionTime
//! teacher ensemble, distill an 8-bit student with AED and confident Gumbel
//! teacher removal (Problem Scenario 1), then run a small encoded-MOBO
//! search with a short-epoch AED oracle (Problem Scenario 2).

use crate::measure::{
    brute_force_frontier, frontier_keys, process_cpu_s, KernelTimes, ProfMark, KERNELS,
};
use crate::report::{Checks, Metrics};
use lightts::data::{archive, Scale, Splits};
use lightts::distill::aed::{run_aed, AedConfig};
use lightts::distill::trainer::StudentTrainOpts;
use lightts::distill::TeacherProbs;
use lightts::models::ensemble::{train_ensemble, BaseModelKind, EnsembleTrainConfig};
use lightts::models::inception::{BlockSpec, InceptionConfig, InceptionTime, TrainConfig};
use lightts::models::metrics::accuracy;
use lightts::models::Classifier;
use lightts::search::encoder::EncoderConfig;
use lightts::search::mobo::{run_mobo, MoboConfig, SpaceRepr};
use lightts::search::StudentSetting;
use lightts::{LightTs, LightTsConfig};
use lightts_tensor::rng::derive_seed;
use std::cell::Cell;
use std::collections::HashSet;
use std::time::Instant;

/// Teachers in the ensemble.
const TEACHERS: usize = 5;
/// Convolution filters of teachers and students.
const FILTERS: usize = 6;
/// Teacher and distillation training epochs.
const EPOCHS: usize = 16;
/// Student bit-width of Problem Scenario 1.
const BITS: u8 = 8;
/// Accuracy evaluations `Q` and random initial ones `P` of the search.
const Q: usize = 8;
const P_INIT: usize = 4;
/// Training epochs of one AED run inside the search oracle.
const ORACLE_EPOCHS: usize = 4;

/// The synthetic analogue of UCR FaceAll at quick scale, re-seeded.
pub fn generate(seed: u64) -> Splits {
    let mut spec = archive::table1("FaceAll").expect("FaceAll is a Table 1 dataset");
    spec.seed = derive_seed(seed, 1);
    spec.generate(Scale::quick())
}

fn test_accuracy(model: &dyn Classifier, splits: &Splits) -> f64 {
    let probs = model.predict_proba_dataset(&splits.test).expect("test prediction");
    accuracy(&probs, splits.test.labels()).expect("test accuracy")
}

/// Wall, CPU and kernel self-time of one phase.
struct Phase {
    wall_s: f64,
    cpu_s: f64,
    kernels: KernelTimes,
}

fn phase<T>(f: impl FnOnce() -> T) -> (T, Phase) {
    let (mark, cpu0, t0) = (ProfMark::now(), process_cpu_s(), Instant::now());
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (out, Phase { wall_s, cpu_s: process_cpu_s() - cpu0, kernels: mark.since() })
}

/// One pipeline's timings, checks excluded, and its student.
pub struct Run {
    /// Wall seconds of the teachers, distill and search phases.
    pub phase_s: [f64; 3],
    /// Process CPU seconds of the three phases together.
    pub cpu_s: f64,
    /// The distilled 8-bit student.
    pub student: InceptionTime,
}

/// Runs the whole pipeline once on `splits` and checks its outputs: each
/// phase is one operation in `checks`.
pub fn run(splits: &Splits, seed: u64, checks: &mut Checks, layers: &mut Metrics) -> Run {
    let chance = 1.0 / splits.num_classes() as f64;

    // ----- teachers -----
    let ens_cfg = EnsembleTrainConfig {
        n_members: TEACHERS,
        seed: derive_seed(seed, 2),
        filters: FILTERS,
        inception: TrainConfig { epochs: EPOCHS, ..TrainConfig::default() },
        ..EnsembleTrainConfig::default()
    };
    let (ensemble, teachers) =
        phase(|| train_ensemble(BaseModelKind::InceptionTime, &splits.train, &ens_cfg));
    let ensemble = ensemble.expect("train the teacher ensemble");
    let ens_acc = test_accuracy(&ensemble, splits);
    checks.op("teachers", |c| {
        c.check(ensemble.len() == TEACHERS, || format!("{} teachers", ensemble.len()));
        c.check(ens_acc > 3.0 * chance, || format!("ensemble test accuracy {ens_acc:.3}"));
    });

    // ----- distillation (what LightTs::distill does, with its teacher
    // probabilities kept for the search) -----
    let mut lt_cfg = LightTsConfig { filters: FILTERS, ..LightTsConfig::default() };
    lt_cfg.distill.aed.train.epochs = EPOCHS;
    lt_cfg.distill.aed.train.seed = derive_seed(seed, 3);
    lt_cfg.distill.aed.v = 4;
    let lightts = LightTs::new(lt_cfg);
    let student_cfg = InceptionConfig::student(
        splits.train.dims(),
        splits.train.series_len(),
        splits.num_classes(),
        FILTERS,
        BITS,
    );
    let mut probs_s = 0.0;
    let ((probs, outcome), distill) = phase(|| {
        let t0 = Instant::now();
        let probs = TeacherProbs::compute(&ensemble, splits).expect("teacher probabilities");
        probs_s = t0.elapsed().as_secs_f64();
        let outcome = lightts.distill_with_config(splits, &probs, &student_cfg);
        (probs, outcome)
    });
    let outcome = outcome.expect("distill the student");
    let student_acc = test_accuracy(&outcome.student, splits);
    checks.op("distill", |c| {
        let w = &outcome.teacher_weights;
        c.check(w.len() == TEACHERS, || format!("{} teacher weights", w.len()));
        c.check(w.iter().all(|x| x.is_finite() && *x >= 0.0), || format!("weights {w:?}"));
        let kept_sum: f32 = outcome.kept_teachers.iter().map(|&k| w[k]).sum();
        c.check((kept_sum - 1.0).abs() < 1e-4, || format!("kept weights sum to {kept_sum}"));
        c.check((0..w.len()).all(|i| outcome.kept_teachers.contains(&i) || w[i] == 0.0), || {
            format!("removed teachers carry weight: {w:?} kept {:?}", outcome.kept_teachers)
        });
        c.check(outcome.aed_runs == TEACHERS, || format!("{} AED runs", outcome.aed_runs));
        c.check(student_acc > 3.0 * chance, || format!("student test accuracy {student_acc:.3}"));
        let twin = InceptionConfig {
            blocks: student_cfg.blocks.iter().map(|b| BlockSpec { bits: 32, ..*b }).collect(),
            ..student_cfg.clone()
        };
        let (small, big) = (outcome.student.size_bits(), twin.size_bits());
        c.check(small < big, || format!("8-bit student {small} bits, 32-bit twin {big}"));
    });

    // ----- encoded-MOBO search with a short-epoch AED oracle -----
    let space = lightts.default_space(splits);
    let oracle_cfg = AedConfig {
        train: StudentTrainOpts {
            epochs: ORACLE_EPOCHS,
            seed: derive_seed(seed, 4),
            ..StudentTrainOpts::default()
        },
        v: 2,
        ..AedConfig::default()
    };
    let mobo = MoboConfig {
        q: Q,
        p_init: P_INIT,
        candidates: 128,
        repr: SpaceRepr::TwoPhaseEncoder,
        encoder: EncoderConfig { seed: derive_seed(seed, 5), ..EncoderConfig::default() },
        // Trains the encoder after evaluations 4, 6 and 8. The last training
        // informs no acquisition, but run_mobo performs it, so it is timed.
        encoder_refresh: 2,
        seed: derive_seed(seed, 6),
    };
    let oracle_s = Cell::new(0.0);
    let oracle_calls = Cell::new(0usize);
    let oracle = |s: &StudentSetting| -> Result<f64, String> {
        let t0 = Instant::now();
        let r = run_aed(splits, &probs, &s.to_config(&space), &oracle_cfg)
            .map(|r| r.val_accuracy)
            .map_err(|e| e.to_string());
        oracle_s.set(oracle_s.get() + t0.elapsed().as_secs_f64());
        oracle_calls.set(oracle_calls.get() + 1);
        r
    };
    let (search_out, search) = phase(|| run_mobo(&space, oracle, &mobo));
    checks.op("search", |c| match &search_out {
        Err(e) => c.check(false, || format!("search failed: {e}")),
        Ok(out) => {
            let distinct: HashSet<&StudentSetting> =
                out.evaluated.iter().map(|e| &e.setting).collect();
            c.check(out.evaluated.len() == Q, || format!("{} evaluations", out.evaluated.len()));
            c.check(oracle_calls.get() == Q, || format!("{} oracle calls", oracle_calls.get()));
            c.check(distinct.len() == out.evaluated.len(), || "repeated settings".into());
            c.check(
                out.evaluated.iter().all(|e| e.size_bits == space.size_bits(&e.setting)),
                || "sizes disagree with the space".into(),
            );
            c.check(frontier_keys(&out.frontier) == brute_force_frontier(&out.evaluated), || {
                "frontier is not the non-dominated subset".into()
            });
        }
    });

    // ----- per-layer attribution -----
    layers.add("models.teachers_cpu_s", teachers.cpu_s);
    layers.add("distill.teacher_probs_s", probs_s);
    layers.add("distill.aed_runs", outcome.aed_runs as f64);
    layers.add("distill.cpu_s", distill.cpu_s);
    layers.add("search.oracle_calls", oracle_calls.get() as f64);
    layers.add("search.oracle_s", oracle_s.get());
    layers.add("search.model_s", search.wall_s - oracle_s.get());
    layers.add("search.cpu_s", search.cpu_s);
    for (name, p) in [("teachers", &teachers), ("distill", &distill), ("search", &search)] {
        for (k, (kernel, _)) in KERNELS.iter().enumerate() {
            layers.add(&format!("tensor.{name}.{kernel}_s"), p.kernels.kernel_s[k]);
        }
        layers.add(&format!("tensor.{name}.unattributed_cpu_s"), p.cpu_s - p.kernels.hooked_s);
    }
    layers.add("pipeline.student_acc", student_acc);
    Run {
        phase_s: [teachers.wall_s, distill.wall_s, search.wall_s],
        cpu_s: teachers.cpu_s + distill.cpu_s + search.cpu_s,
        student: outcome.student,
    }
}
