//! A cache prefetch hint behind a safe, reference-taking interface.
//!
//! Callers that know which memory the *next* piece of work will touch (the
//! engine's next event, a lock table's next probe) start pulling it in
//! while the current work runs. A prefetch reads nothing, writes nothing and
//! cannot fault, so it never changes what a program computes, only when
//! its loads are served.

/// Hint the CPU to pull `*r` into cache: the 64-byte line holding its first
/// byte and, when the value straddles a line boundary, the line holding its
/// last byte. That covers the whole value whenever it spans at most two
/// lines, as any value of up to 65 bytes does.
///
/// Purely a performance hint, with no effect on any value the program
/// computes. On targets other than x86_64 it compiles to nothing.
#[inline(always)]
pub fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = std::ptr::from_ref(r).cast::<i8>();
        let last = first.wrapping_add(size_of::<T>().max(1) - 1);
        // SAFETY: prefetch is a hint with no memory effects; it cannot
        // fault, and both addresses lie inside the referenced value.
        unsafe { _mm_prefetch(first, _MM_HINT_T0) };
        // Only a value larger than its alignment (capped at the 64-byte
        // line) can straddle two lines; for scalars this test folds away.
        if size_of::<T>() > align_of::<T>().min(64) && (first as usize ^ last as usize) >= 64 {
            // SAFETY: as above.
            unsafe { _mm_prefetch(last, _MM_HINT_T0) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = r;
    }
}
