//! Fixture: direct lock-discipline violations — re-entry, guard across a
//! fan-out, for-header temporary extension, and an edge through a call.
pub struct S {
    tables: std::sync::RwLock<Vec<u8>>,
    wal: std::sync::Mutex<u8>,
}

impl S {
    pub fn reentry(&self) {
        let a = self.tables.read();
        let b = self.tables.write();
        let _ = (a, b);
    }

    pub fn guard_across_fanout(&self) {
        let w = self.wal.lock();
        std::thread::scope(|s| {
            s.spawn(|| 1);
        });
        drop(w);
    }

    pub fn for_header_guard_lives_through_body(&self) {
        for x in self.tables.read().iter() {
            // The iterated guard is still live: edge tables->wal AND a
            // re-entry on tables below.
            let _w = self.wal.lock();
            let _again = self.tables.read();
            let _ = x;
        }
    }

    pub fn fanout_via_helper(&self) {
        let w = self.wal.lock();
        self.helper_that_fans_out();
        drop(w);
    }

    fn helper_that_fans_out(&self) {
        let _ = std::thread::spawn(|| 1).join();
    }
}
