//! Homes: runs of inode numbers reserved at one go and built later, one run
//! per owner.
//!
//! A file system that holds many owners' objects, few of them in use at
//! once (the File System Creator's per-user directories), reserves their
//! numbers up front ([`crate::Vfs::reserve_homes`]): one contiguous run of
//! `per_home` numbers per home, starting at the number the table would hand
//! out next. Every number of every home counts as used whether the home is
//! built, dropped or never built, and none is handed to another object, so
//! the numbers every other object gets and `statfs` read as if every home
//! stood from the start. A built home's inodes live in a page of `per_home`
//! slots, allocated when its first object is placed and freed when it is
//! dropped; every other inode lives in the dense table.

use crate::inode::Inode;

/// One home's inodes, by place in its run.
type Page = Box<[Option<Inode>]>;

/// Where an inode number lives.
pub(crate) enum Slot {
    /// An index of the dense table.
    Dense(usize),
    /// A home and a place in its run.
    Home(usize, usize),
}

/// The reserved runs and the pages of the built homes.
#[derive(Debug, Default)]
pub(crate) struct Homes {
    /// The first number of home 0.
    first: u64,
    /// Numbers per home.
    per_home: u64,
    /// `⌊(2⁶⁴ − 1) / per_home⌋`, so that finding a number's home takes a
    /// multiplication, not a division.
    magic: u64,
    /// Numbers of all homes.
    span: u64,
    /// The clock when the homes were reserved: a built object's times.
    pub(crate) clock: u64,
    pages: Vec<Option<Page>>,
}

impl Homes {
    /// `homes` runs of `per_home` numbers from `first`, none built; `None`
    /// when the table of pages cannot be allocated.
    pub(crate) fn reserve(first: u64, per_home: u64, homes: usize, clock: u64) -> Option<Self> {
        let mut pages = Vec::new();
        pages.try_reserve_exact(homes).ok()?;
        pages.resize_with(homes, || None);
        Some(Self {
            first,
            per_home,
            magic: u64::MAX.checked_div(per_home).unwrap_or(0),
            span: per_home * homes as u64,
            clock,
            pages,
        })
    }

    /// Number of homes.
    pub(crate) fn len(&self) -> usize {
        self.pages.len()
    }

    /// Numbers of all homes.
    pub(crate) fn span(&self) -> u64 {
        self.span
    }

    /// Where number `n` lives.
    pub(crate) fn slot(&self, n: u64) -> Slot {
        match n.checked_sub(self.first) {
            None => Slot::Dense(n as usize),
            Some(off) if off < self.span => {
                // `off × magic / 2⁶⁴` falls short of `off / per_home` by at
                // most one for every `off` below 2⁶³.
                let mut home = ((u128::from(off) * u128::from(self.magic)) >> 64) as u64;
                let mut at = off - home * self.per_home;
                if at >= self.per_home {
                    (home, at) = (home + 1, at - self.per_home);
                }
                Slot::Home(home as usize, at as usize)
            }
            Some(_) => Slot::Dense((n - self.span) as usize),
        }
    }

    /// The number of dense index `idx`: the runs sit between the indices
    /// below `first` and the rest.
    pub(crate) fn number(&self, idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < self.first {
            idx
        } else {
            idx + self.span
        }
    }

    /// Whether `home` is built.
    pub(crate) fn built(&self, home: usize) -> bool {
        self.pages.get(home).is_some_and(Option::is_some)
    }

    /// Slot `at` of `home`, `None` while the home is not built.
    pub(crate) fn get_mut(&mut self, home: usize, at: usize) -> Option<&mut Option<Inode>> {
        self.pages[home].as_mut().map(|page| &mut page[at])
    }

    /// Slot `at` of `home`, whose page is allocated if it is not built.
    pub(crate) fn build(&mut self, home: usize, at: usize) -> &mut Option<Inode> {
        let per_home = self.per_home as usize;
        let page = self.pages[home].get_or_insert_with(|| (0..per_home).map(|_| None).collect());
        &mut page[at]
    }

    /// Takes `home`'s page away, with whatever it still holds.
    pub(crate) fn drop_page(&mut self, home: usize) -> Option<Page> {
        self.pages.get_mut(home)?.take()
    }

    /// The inode in slot `at` of `home`.
    pub(crate) fn get(&self, home: usize, at: usize) -> Option<&Inode> {
        self.pages[home].as_ref()?[at].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_number_lands_in_the_home_a_division_puts_it_in() {
        for per_home in [1, 2, 3, 7, 52, 1 << 20, (1 << 31) + 11] {
            let homes = Homes::reserve(10, per_home, 3, 0).unwrap();
            let offs = (0..3 * per_home.min(200)).chain([3 * per_home - 1]);
            for off in offs.chain([per_home - 1, per_home, 2 * per_home]) {
                let Slot::Home(home, at) = homes.slot(10 + off) else {
                    panic!("{off} of {per_home} is a home's");
                };
                assert_eq!((home as u64, at as u64), (off / per_home, off % per_home));
            }
            assert!(matches!(homes.slot(9), Slot::Dense(9)));
            assert!(matches!(homes.slot(10 + 3 * per_home), Slot::Dense(10)));
        }
    }
}
