//! Fixture: stands in for any library file of `nosql-store` holding an
//! `impl Cluster` block (the cost-accounting rule keys on the impl, not on
//! the file name).
pub struct Cluster {
    inner: Inner,
}
pub struct Inner {
    regions: Vec<u8>,
}

impl Cluster {
    pub fn uncharged_touch(&self) -> usize {
        self.inner.regions.len()
    }

    pub fn charged_touch(&self) -> usize {
        self.charge(1);
        self.inner.regions.len()
    }

    pub fn retried_touch(&self) -> usize {
        self.with_retry(|| self.inner.regions.len())
    }

    // lint-allow(cost-accounting): metadata probe, nothing to charge
    pub fn pragma_touch(&self) -> usize {
        self.inner.regions.len()
    }

    pub fn no_region_state(&self) -> usize {
        41 + 1
    }

    fn private_touch(&self) -> usize {
        self.inner.regions.len()
    }

    fn charge(&self, _n: u64) {}
    fn with_retry<T>(&self, f: impl Fn() -> T) -> T {
        f()
    }
}

pub fn free_fn_touches(c: &Cluster) -> usize {
    c.inner.regions.len()
}
