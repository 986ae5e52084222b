// Fixture: attributed guard bindings keep the ordinary scoping rules —
// consistent order records no cycle, and an attributed guard still dies
// at its block end or its `drop`.
use std::sync::Mutex;

pub struct Pair {
    pub alpha: Mutex<u32>,
    pub beta: Mutex<u32>,
}

impl Pair {
    pub fn forward(&self) -> u32 {
        #[expect(clippy::expect_used, reason = "fixture")]
        let a = self.alpha.lock().expect("alpha");
        #[expect(clippy::expect_used, reason = "fixture")]
        let b = self.beta.lock().expect("beta");
        *a + *b
    }

    pub fn sequential(&self) -> u32 {
        let first = {
            #[expect(clippy::expect_used, reason = "fixture")]
            let b = self.beta.lock().expect("beta");
            *b
        };
        #[expect(clippy::expect_used, reason = "fixture")]
        let a = self.alpha.lock().expect("alpha");
        first + *a
    }

    pub fn dropped(&self) -> u32 {
        #[expect(clippy::expect_used, reason = "fixture")]
        let b = self.beta.lock().expect("beta");
        let snapshot = *b;
        drop(b);
        #[expect(clippy::expect_used, reason = "fixture")]
        let a = self.alpha.lock().expect("alpha");
        snapshot + *a
    }
}
