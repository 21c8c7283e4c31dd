(** Printers for the kernel IR.

    [kernel_to_string] emits valid [.lk] concrete syntax: for every kernel
    [k], [Parser.parse_kernel (kernel_to_string k) = k] (property-tested). *)

val binop_sym : Ast.binop -> string
(** Operator symbol ("+", "<<", ...; "min"/"max" for the call forms). *)

val expr_to_string : Ast.expr -> string
val kernel_to_string : Ast.kernel -> string
