//! Fixture: every determinism trigger, plus the suppression forms.
use std::collections::HashMap;
use std::collections::HashSet; // lint-allow(determinism): lookup-only fixture

pub fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn sys_time() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

pub fn ambient_rng() -> u64 {
    thread_rng().gen()
}

// lint-allow(determinism): standalone pragma covers the next line
pub fn suppressed_map() -> HashMap<u8, u8> {
    HashMap::new() // lint-allow(determinism): trailing pragma covers this line
}

pub fn spawns_a_thread() -> u64 {
    std::thread::spawn(|| 1).join().unwrap_or(0)
}

pub fn fans_out_on_scoped_threads() {
    std::thread::scope(|s| {
        s.spawn(|| std::thread::yield_now());
    });
}

pub fn strings_do_not_count() -> &'static str {
    "HashMap Instant::now SystemTime thread_rng thread::spawn"
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let _ = std::time::Instant::now();
        let _: std::collections::HashMap<u8, u8> = std::collections::HashMap::new();
    }
}
