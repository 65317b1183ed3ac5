//! The abstract syntax tree of SimC.
//!
//! The tree is deliberately simple — globals, functions, statements and
//! expressions over 32-bit words — but it carries the one piece of
//! information the paper's transformation depends on: the **declared type**
//! of every variable, so that UID-typed data (`uid_t`, `gid_t`) can be
//! identified and re-expressed without disturbing anything else.

use std::fmt;

/// Declared types in SimC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// 32-bit signed integer.
    Int,
    /// A user identifier (`uid_t`). The target type of the UID variation.
    UidT,
    /// A group identifier (`gid_t`), treated as part of the UID data class.
    GidT,
    /// An untyped byte pointer.
    Ptr,
    /// A fixed-size byte buffer living in the enclosing frame or in globals.
    Buf(u32),
    /// No value (function return type only).
    Void,
}

impl Type {
    /// Returns `true` for the UID data class (`uid_t` or `gid_t`).
    #[must_use]
    pub fn is_uid_class(self) -> bool {
        matches!(self, Type::UidT | Type::GidT)
    }

    /// Size in bytes a value of this type occupies in memory.
    #[must_use]
    pub fn size(self) -> u32 {
        match self {
            Type::Buf(n) => n.max(1),
            Type::Void => 0,
            _ => 4,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::UidT => write!(f, "uid_t"),
            Type::GidT => write!(f, "gid_t"),
            Type::Ptr => write!(f, "ptr"),
            Type::Buf(n) => write!(f, "buf[{n}]"),
            Type::Void => write!(f, "void"),
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!x` (yields 0 or 1).
    Not,
    /// Bitwise complement `~x`.
    BitNot,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "!"),
            UnOp::BitNot => write!(f, "~"),
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division.
    Div,
    /// Signed remainder.
    Mod,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
    /// Left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Equality (yields 0 or 1).
    Eq,
    /// Inequality.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Short-circuit logical and.
    LogAnd,
    /// Short-circuit logical or.
    LogOr,
}

impl BinOp {
    /// Returns `true` for the comparison operators (`==`, `!=`, `<`, `<=`,
    /// `>`, `>=`) — the operators the UID transformation must expose to the
    /// monitor via the `cc_*` detection calls.
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Returns `true` for the *inequality* comparisons whose truth value is
    /// not preserved by bit-flipping reexpression and must therefore be
    /// handled specially by the transformation (§3.3 of the paper).
    #[must_use]
    pub fn is_ordering_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::LogAnd => "&&",
            BinOp::LogOr => "||",
        };
        write!(f, "{s}")
    }
}

/// Expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal (decimal, hex, or character constant in source form).
    IntLit(i64),
    /// String literal; evaluates to the address of a NUL-terminated copy in
    /// read-only data.
    StrLit(String),
    /// Variable reference. Buffer-typed variables decay to their address.
    Ident(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Function or system call.
    Call(String, Vec<Expr>),
    /// Byte indexing `base[index]` (base may be a buffer or a pointer).
    Index(Box<Expr>, Box<Expr>),
    /// Word dereference `*ptr`.
    Deref(Box<Expr>),
    /// Address of a variable `&name`.
    AddrOf(String),
}

impl Expr {
    /// Convenience constructor for a call expression.
    #[must_use]
    pub fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Call(name.to_string(), args)
    }

    /// Convenience constructor for an identifier.
    #[must_use]
    pub fn ident(name: &str) -> Expr {
        Expr::Ident(name.to_string())
    }

    /// Convenience constructor for an integer literal.
    #[must_use]
    pub fn int(value: i64) -> Expr {
        Expr::IntLit(value)
    }

    /// Convenience constructor for a binary expression.
    #[must_use]
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }
}

/// Assignment targets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LValue {
    /// A scalar variable.
    Var(String),
    /// A byte store `base[index] = …`.
    Index(Expr, Expr),
    /// A word store through a pointer `*ptr = …`.
    Deref(Expr),
}

/// Statements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// Local variable declaration with optional initializer.
    VarDecl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initializing expression.
        init: Option<Expr>,
    },
    /// Assignment.
    Assign {
        /// Assignment target.
        target: LValue,
        /// Value to store.
        value: Expr,
    },
    /// Conditional.
    If {
        /// Condition expression.
        cond: Expr,
        /// Statements executed when the condition is non-zero.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise.
        else_body: Vec<Stmt>,
    },
    /// Loop.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Return from the current function.
    Return(Option<Expr>),
    /// Expression evaluated for its side effects.
    Expr(Expr),
    /// Break out of the innermost loop.
    Break,
    /// Continue with the next iteration of the innermost loop.
    Continue,
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Return type.
    pub ret: Type,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A global variable declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Optional constant initializer (integer literal or string literal).
    pub init: Option<Expr>,
}

/// A complete SimC program: globals plus functions.
///
/// # Example
///
/// ```
/// use nvariant_vm::{parse_program, Type};
///
/// let program = parse_program("var counter: int = 0; fn main() -> int { return counter; }")?;
/// assert_eq!(program.globals.len(), 1);
/// assert_eq!(program.globals[0].ty, Type::Int);
/// assert!(program.function("main").is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// Global variables, in declaration order (which fixes their layout).
    pub globals: Vec<GlobalDecl>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Program::default()
    }

    /// Looks up a function by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global by name.
    #[must_use]
    pub fn global(&self, name: &str) -> Option<&GlobalDecl> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Merges another program's globals and functions into this one
    /// (used to link the SimC standard library with an application).
    pub fn merge(&mut self, other: Program) {
        self.globals.extend(other.globals);
        self.functions.extend(other.functions);
    }

    /// Total number of statements across all functions — a rough size metric
    /// used when reporting transformation statistics.
    #[must_use]
    pub fn statement_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => 1 + count(then_body) + count(else_body),
                    Stmt::While { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        self.functions.iter().map(|f| count(&f.body)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_properties() {
        assert!(Type::UidT.is_uid_class());
        assert!(Type::GidT.is_uid_class());
        assert!(!Type::Int.is_uid_class());
        assert_eq!(Type::Int.size(), 4);
        assert_eq!(Type::Buf(64).size(), 64);
        assert_eq!(Type::Buf(0).size(), 1);
        assert_eq!(Type::Void.size(), 0);
        assert_eq!(format!("{}", Type::Buf(16)), "buf[16]");
        assert_eq!(format!("{}", Type::UidT), "uid_t");
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Ge.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Lt.is_ordering_comparison());
        assert!(!BinOp::Eq.is_ordering_comparison());
        assert_eq!(format!("{}", BinOp::Le), "<=");
        assert_eq!(format!("{}", UnOp::Not), "!");
    }

    #[test]
    fn expr_constructors() {
        let e = Expr::binary(BinOp::Eq, Expr::ident("uid"), Expr::int(0));
        match e {
            Expr::Binary(BinOp::Eq, lhs, rhs) => {
                assert_eq!(*lhs, Expr::Ident("uid".into()));
                assert_eq!(*rhs, Expr::IntLit(0));
            }
            other => panic!("unexpected expression {other:?}"),
        }
        assert_eq!(
            Expr::call("getuid", vec![]),
            Expr::Call("getuid".into(), vec![])
        );
    }

    #[test]
    fn program_lookup_and_merge() {
        let mut p = Program::new();
        p.globals.push(GlobalDecl {
            name: "g".into(),
            ty: Type::Int,
            init: None,
        });
        p.functions.push(Function {
            name: "main".into(),
            params: vec![],
            ret: Type::Int,
            body: vec![Stmt::Return(Some(Expr::int(0)))],
        });
        assert!(p.function("main").is_some());
        assert!(p.global("g").is_some());
        assert!(p.function("missing").is_none());

        let mut lib = Program::new();
        lib.functions.push(Function {
            name: "helper".into(),
            params: vec![],
            ret: Type::Void,
            body: vec![],
        });
        p.merge(lib);
        assert!(p.function("helper").is_some());
    }

    #[test]
    fn statement_count_recurses() {
        let f = Function {
            name: "f".into(),
            params: vec![],
            ret: Type::Void,
            body: vec![
                Stmt::If {
                    cond: Expr::int(1),
                    then_body: vec![Stmt::Return(None), Stmt::Break],
                    else_body: vec![Stmt::Continue],
                },
                Stmt::While {
                    cond: Expr::int(0),
                    body: vec![Stmt::Expr(Expr::int(3))],
                },
            ],
        };
        let p = Program {
            globals: vec![],
            functions: vec![f],
        };
        assert_eq!(p.statement_count(), 6);
    }
}
