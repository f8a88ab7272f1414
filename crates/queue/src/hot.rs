// `hot!(name, { body })`: the `#[atos_hot]` marker of the crates that
// stay dependency-free (`atos-queue` includes this file, and so does
// `atos-graph`), written around the body of the function `name`. Every
// ordinary build expands it to the body unchanged. Under
// `--cfg atos_nopanic` it is the same link-time no-unwind proof as the
// attribute, with the same symbol, `atos_nopanic: <file>::<fn>`: the body
// runs in a closure behind a guard that only an unwind drops, and whose
// `Drop` calls a symbol nothing defines (DESIGN.md §7).

#[cfg(not(atos_nopanic))]
macro_rules! hot {
    ($name:ident, $body:block) => {
        $body
    };
}

#[cfg(atos_nopanic)]
macro_rules! hot {
    ($name:ident, $body:block) => {{
        struct AtosUnwinds;
        impl ::core::ops::Drop for AtosUnwinds {
            #[inline(always)]
            #[allow(unsafe_code)]
            fn drop(&mut self) {
                extern "C" {
                    #[link_name = concat!("atos_nopanic: ", file!(), "::", stringify!($name))]
                    fn unwinds() -> !;
                }
                // SAFETY: never called in a linked program: the build links
                // only if no unwinding edge reaches this drop.
                unsafe { unwinds() }
            }
        }
        #[inline(always)]
        fn once<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        let atos_guard = AtosUnwinds;
        let atos_ret = once(#[inline(always)] move || $body);
        ::core::mem::forget(atos_guard);
        atos_ret
    }};
}
