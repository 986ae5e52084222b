//! One module per paper figure/table; each exposes `run(&Args) -> FigureOutput`
//! and opens with the figure it regenerates and the panels it prints.

pub mod fig1;
pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod theory;
