//! The File System Creator (FSC).
//!
//! "The FSC builds a new file system according to the file distributions for
//! each file category. […] In the new file system, we create a directory for
//! system files, and several directories, one for each virtual user. Files
//! in the system directory and a user's directory are created according to
//! the file distributions." (Section 4.1.2)
//!
//! A [`FscSpec`] describes the file population: one [`CategorySpec`] per
//! file category (file type × owner × type of use, as in Table 5.1 of the
//! paper) with its fraction of the population and its size distribution.
//! [`FileSystemCreator::build`] materializes that population inside a
//! [`Vfs`](uswg_vfs::Vfs) and returns the [`FileCatalog`] the User Simulator
//! uses to select files.
//!
//! # Example
//!
//! ```
//! use uswg_distr::DistributionSpec;
//! use uswg_fsc::{CategorySpec, FileCategory, FileSystemCreator, FscSpec};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = FscSpec::new(vec![
//!     CategorySpec::new(FileCategory::REG_USER_RDONLY, 0.6, DistributionSpec::exponential(5794.0)),
//!     CategorySpec::new(FileCategory::REG_OTHER_RDONLY, 0.4, DistributionSpec::exponential(31347.0)),
//! ])?;
//! let creator = FileSystemCreator::new(spec);
//! let mut vfs = uswg_vfs::Vfs::new(uswg_vfs::VfsConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let catalog = creator.build(&mut vfs, 2, &mut rng)?;
//! assert!(catalog.len() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alias;
mod catalog;
mod category;
mod creator;
mod error;

pub use alias::{linear_scan_draw, AliasTable};
pub use catalog::{CatalogFile, FileCatalog, FilePopularity, MAX_ZIPF_EXPONENT};
pub use category::{FileCategory, FileType, Owner, UsageClass};
pub use creator::{CategorySpec, FileSystemCreator, FillPattern, FscSpec};
pub use error::FscError;
