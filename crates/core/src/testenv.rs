//! Test-only environment that *observes* outputs, so faults become
//! program-visible (unlike [`delayavf_sim::ConstEnvironment`], which has no
//! program output at all).

use delayavf_sim::Environment;

/// Drives input port 0 with a constant and logs every observed output word
/// into the program output; halts after a fixed horizon.
#[derive(Clone, Debug)]
pub(crate) struct ObservingEnv {
    pub input: u64,
    pub horizon: u64,
    seen: u64,
    fp: u64,
    log: Vec<u8>,
}

impl ObservingEnv {
    pub fn new(input: u64, horizon: u64) -> Self {
        ObservingEnv {
            input,
            horizon,
            seen: 0,
            fp: 0x9e37_79b9_7f4a_7c15,
            log: Vec::new(),
        }
    }
}

impl Environment for ObservingEnv {
    fn step(&mut self, _cycle: u64, prev_outputs: &[u64], inputs: &mut [u64]) {
        for &o in prev_outputs {
            self.fp = (self.fp ^ o).wrapping_mul(0x0000_0100_0000_01b3);
            self.log.extend_from_slice(&o.to_le_bytes());
        }
        self.seen += 1;
        if let Some(slot) = inputs.first_mut() {
            *slot = self.input;
        }
    }

    fn halted(&self) -> bool {
        self.seen > self.horizon
    }

    fn fingerprint(&self) -> u64 {
        self.fp
    }

    fn program_output(&self) -> Vec<u8> {
        self.log.clone()
    }
}
