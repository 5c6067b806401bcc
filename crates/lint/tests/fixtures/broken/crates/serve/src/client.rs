//! Broken fixture for the no-sleep rule: a serving-path wait that
//! sleeps out a fixed tick instead of waking on its event.

pub fn wait_for(ready: &std::sync::atomic::AtomicBool) {
    while !ready.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}
