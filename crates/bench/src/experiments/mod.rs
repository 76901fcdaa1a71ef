//! The experiment functions behind each bench target: T1 and E1–E7
//! (the README's bench-target table maps each one to its target).

mod kkt_worst;
mod lemma3;
mod lemma4;
mod minkey_cmp;
mod open_question;
mod scaling;
mod sketch_acc;
mod table1;

pub use kkt_worst::{run_c3_table, run_collision_experiment, run_kkt_worst_case, KktConfig};
pub use lemma3::{run_lemma3, Lemma3Config};
pub use lemma4::{run_lemma4, Lemma4Config};
pub use minkey_cmp::{run_minkey_comparison, MinKeyConfig};
pub use open_question::{run_open_question, OpenQuestionConfig};
pub use scaling::{run_scaling, ScalingConfig};
pub use sketch_acc::{run_hard_instance_decode, run_sketch_accuracy, SketchAccuracyConfig};
pub use table1::{run_table1, Table1Config};
