// Fixture: lock-order must fire when two paths acquire the same pair of
// locks in opposite orders, even when every guard is bound under an outer
// attribute (`#[expect(…)] let guard = …` is still a held guard).
use std::sync::Mutex;

pub struct Pair {
    pub alpha: Mutex<u32>,
    pub beta: Mutex<u32>,
}

impl Pair {
    pub fn forward(&self) -> u32 {
        #[expect(clippy::expect_used, reason = "fixture: the attribute must not hide the guard")]
        let a = self.alpha.lock().expect("alpha");
        #[expect(clippy::expect_used, reason = "fixture")]
        #[allow(unused_mut)]
        let mut b = self.beta.lock().expect("beta");
        *a + *b
    }

    pub fn backward(&self) -> u32 {
        #[expect(clippy::expect_used, reason = "fixture: nested [brackets] are skipped too")]
        let b = self.beta.lock().expect("beta");
        #[expect(clippy::expect_used, reason = "fixture")]
        let a = self.alpha.lock().expect("alpha");
        *a - *b
    }
}
